#include "exec/feedback_block.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cstddef>

namespace afex {
namespace exec {

namespace {

// The plan region, the block's tail: the one part the parent writes into a
// block a server or a live persistent child has mapped.
constexpr size_t kPlanRegionOffset = offsetof(FeedbackBlock, plan_count);
static_assert(offsetof(FeedbackBlock, plan) == kPlanRegionOffset + sizeof(uint64_t) &&
                  sizeof(FeedbackBlock) ==
                      offsetof(FeedbackBlock, plan) + sizeof(FeedbackBlock::plan),
              "the plan region is plan_count then the entries, with no padding");

// Writes the block's bytes from offset `from` to its end, at that offset of
// `fd`: a fresh block's (FeedbackBlock's defaults), except that the plan
// region holds `plan`. One syscall; slots past the plan hold default entries.
bool WriteBlockTail(int fd, size_t from, std::span<const FsPlanEntry> plan) {
  if (plan.size() > kFsMaxPlans) {
    return false;
  }
  static const FeedbackBlock kFresh{};
  char* fresh = reinterpret_cast<char*>(const_cast<FeedbackBlock*>(&kFresh));
  uint64_t count = plan.size();
  const size_t plan_end = offsetof(FeedbackBlock, plan) + plan.size_bytes();
  struct iovec iov[] = {
      {fresh + from, kPlanRegionOffset - from},
      {&count, sizeof(count)},
      {const_cast<FsPlanEntry*>(plan.data()), plan.size_bytes()},
      {fresh + plan_end, sizeof(FeedbackBlock) - plan_end},
  };
  const ssize_t want = static_cast<ssize_t>(sizeof(FeedbackBlock) - from);
  return ::pwritev(fd, iov, 4, static_cast<off_t>(from)) == want;
}

}  // namespace

int OpenFeedbackFile(const char* path) {
  const int fd = ::open(path, O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd >= 0 && !ResetFeedbackBlock(fd, {})) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool ResetFeedbackBlock(int fd, std::span<const FsPlanEntry> plan) {
  return WriteBlockTail(fd, 0, plan);
}

bool WriteFeedbackPlan(int fd, std::span<const FsPlanEntry> plan) {
  return WriteBlockTail(fd, kPlanRegionOffset, plan);
}

FeedbackReadStatus ReadFeedbackBlockStatus(int fd, FeedbackBlock& out) {
  // Byte-count read. A file shorter than the fixed counter region is torn
  // whatever its header says; past it, the header (magic, version)
  // classifies the block before the edge region's length is checked.
  constexpr size_t kCounterRegionBytes = offsetof(FeedbackBlock, edges_supported);
  const ssize_t bytes = ::pread(fd, &out, sizeof(out), 0);
  if (bytes < 0) {
    return FeedbackReadStatus::kMissing;
  }
  if (static_cast<size_t>(bytes) < kCounterRegionBytes) {
    return FeedbackReadStatus::kShort;
  }
  if (out.magic != kFeedbackMagic) {
    return FeedbackReadStatus::kBadMagic;
  }
  if (out.version != kFeedbackVersion) {
    return FeedbackReadStatus::kVersionSkew;
  }
  if (static_cast<size_t>(bytes) < sizeof(out)) {
    return FeedbackReadStatus::kShort;
  }
  return FeedbackReadStatus::kOk;
}

}  // namespace exec
}  // namespace afex
