#include "exec/feedback_block.h"

#include <cstddef>
#include <cstdio>

namespace afex {
namespace exec {

bool CreateFeedbackFile(const char* path) {
  FILE* f = std::fopen(path, "wb");
  if (f == nullptr) {
    return false;
  }
  static const FeedbackBlock kZero{};
  size_t written = std::fwrite(&kZero, sizeof(kZero), 1, f);
  return std::fclose(f) == 0 && written == 1;
}

FeedbackReadStatus ReadFeedbackBlockStatus(const char* path, FeedbackBlock& out) {
  FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    return FeedbackReadStatus::kMissing;
  }
  // Byte-count read. A file shorter than the fixed counter region is torn
  // whatever its header says; past it, the header (magic, version)
  // classifies the block before the edge region's length is checked.
  constexpr size_t kCounterRegionBytes = offsetof(FeedbackBlock, edges_supported);
  size_t bytes = std::fread(&out, 1, sizeof(out), f);
  std::fclose(f);
  if (bytes < kCounterRegionBytes) {
    return FeedbackReadStatus::kShort;
  }
  if (out.magic != kFeedbackMagic) {
    return FeedbackReadStatus::kBadMagic;
  }
  if (out.version != kFeedbackVersion) {
    return FeedbackReadStatus::kVersionSkew;
  }
  if (bytes < sizeof(out)) {
    return FeedbackReadStatus::kShort;
  }
  return FeedbackReadStatus::kOk;
}

bool ReadFeedbackBlock(const char* path, FeedbackBlock& out) {
  return ReadFeedbackBlockStatus(path, out) == FeedbackReadStatus::kOk;
}

}  // namespace exec
}  // namespace afex
