#include "campaign/store.h"

#include <algorithm>
#include <tuple>

#include "util/fnv1a.h"
#include "util/strings.h"

namespace afex {
namespace {

constexpr std::string_view kHeaderMagic = "AFEXJ ";
constexpr std::string_view kRecordTag = "R ";

std::string HeaderLine(const CampaignMeta& meta) {
  return std::string(kHeaderMagic) + SerializeMeta(meta);
}

std::string RecordLine(const SessionRecord& record) {
  return std::string(kRecordTag) + SerializeRecord(record);
}

}  // namespace

CampaignStore CampaignStore::Create(const std::string& path, const CampaignMeta& meta) {
  if (std::ifstream(path).good()) {
    throw CampaignError("journal '" + path +
                        "' already exists; resume it with --resume or delete it first");
  }
  CampaignStore store(path, meta);
  store.journal_ = Journal::Create(path, HeaderLine(meta));
  return store;
}

CampaignStore CampaignStore::Open(const std::string& path) {
  Journal::LoadResult loaded = Journal::Load(path);
  if (!StartsWith(loaded.header, kHeaderMagic)) {
    throw CampaignError("'" + path + "' is not an AFEX campaign journal");
  }
  std::string_view meta_line = std::string_view(loaded.header).substr(kHeaderMagic.size());
  // A newer journal may carry header fields this build rejects: report
  // its version rather than "malformed".
  CampaignMeta meta;
  const bool parsed = ParseMeta(meta_line, meta);
  if (meta.version > kCampaignFormatVersion) {
    throw CampaignError("journal '" + path + "' has format version " +
                        std::to_string(meta.version) + "; this build reads up to " +
                        std::to_string(kCampaignFormatVersion));
  }
  if (!parsed) {
    throw CampaignError("journal '" + path + "' has a malformed header");
  }

  CampaignStore store(path, meta);
  for (size_t i = 0; i < loaded.records.size(); ++i) {
    const std::string& line = loaded.records[i];
    SessionRecord record;
    bool ok = StartsWith(line, kRecordTag) &&
              ParseRecord(std::string_view(line).substr(kRecordTag.size()), record);
    if (!ok) {
      if (i + 1 == loaded.records.size()) {
        // A malformed final line is treated like a torn write and dropped;
        // anything earlier means real corruption.
        break;
      }
      throw CampaignError("journal '" + path + "' is corrupt at record " +
                          std::to_string(i + 1));
    }
    store.records_.push_back(std::move(record));
  }
  return store;
}

CampaignStore CampaignStore::Open(const std::string& path, const CampaignMeta& expected) {
  CampaignStore store = Open(path);
  store.Verify(expected);
  return store;
}

void CampaignStore::Verify(const CampaignMeta& expected) {
  const CampaignMeta& meta = meta_;
  auto fingerprint = [](uint64_t fp) { return fp == 0 ? "none" : FingerprintHex(fp); };
  // A differing target-profile fingerprint means the target binary was
  // rebuilt with a different libc boundary since the journal was written:
  // replaying its faults against the new binary is not a resume.
  const std::tuple<const char*, std::string, std::string> fields[] = {
      {"target", meta.target, expected.target},
      {"strategy", meta.strategy, expected.strategy},
      {"seed", std::to_string(meta.seed), std::to_string(expected.seed)},
      {"space fingerprint", FingerprintHex(meta.space_fingerprint),
       FingerprintHex(expected.space_fingerprint)},
      {"jobs", std::to_string(meta.jobs), std::to_string(expected.jobs)},
      {"feedback", meta.feedback ? "on" : "off", expected.feedback ? "on" : "off"},
      {"warm-start", fingerprint(meta.warm_fingerprint), fingerprint(expected.warm_fingerprint)},
      {"target binary profile (static analysis)", fingerprint(meta.analysis_fingerprint),
       fingerprint(expected.analysis_fingerprint)},
  };
  std::string mismatches;
  for (const auto& [field, stored, current] : fields) {
    if (stored != current) {
      mismatches += "\n  " + std::string(field) + ": journal has " + stored + ", campaign has " +
                    current;
    }
  }
  if (!mismatches.empty()) {
    throw CampaignError("refusing to resume from '" + path_ +
                        "': campaign configuration mismatch" + mismatches);
  }
  // The identity holds, so the journal now describes the campaign as
  // resumed: CommitResume's rewritten header carries the expected meta
  // (its recipe's budget, and the recipe itself for a pre-v4 journal).
  meta_ = expected;
}

void CampaignStore::CommitResume(size_t n) {
  if (n > records_.size()) {
    throw CampaignError("CommitResume(" + std::to_string(n) + ") exceeds " +
                        std::to_string(records_.size()) + " loaded records");
  }
  records_.resize(n);
  std::vector<std::string> lines;
  lines.reserve(records_.size());
  for (const SessionRecord& record : records_) {
    lines.push_back(RecordLine(record));
  }
  journal_ = Journal::Rewrite(path_, HeaderLine(meta_), lines);
  journal_.set_metrics_sink(metrics_);
}

void CampaignStore::Append(const SessionRecord& record) {
  if (!journal_.is_open()) {
    throw CampaignError("campaign journal '" + path_ +
                        "' is not open for appending (resume not committed)");
  }
  // Only the serialized line is persisted; records_ deliberately does not
  // grow here — the session already owns an identical copy of every
  // executed record, and doubling that for a multi-hour campaign would be
  // pure overhead.
  journal_.Append(RecordLine(record));
}

std::function<void(const SessionRecord&)> CampaignStore::MakeObserver() {
  return [this](const SessionRecord& record) { Append(record); };
}

std::vector<uint32_t> CampaignStore::CoverageIdsForNode(size_t node) const {
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < records_.size(); ++i) {
    if (i % meta_.jobs != node) {
      continue;
    }
    const auto& fresh = records_[i].outcome.new_block_ids;
    ids.insert(ids.end(), fresh.begin(), fresh.end());
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

namespace {

bool WarmStartEligible(const FaultSpace& space, const SessionRecord& record) {
  return record.fitness > 0.0 && record.fault.dimensions() == space.dimensions() &&
         space.InBounds(record.fault) && space.IsValid(record.fault);
}

}  // namespace

size_t WarmStartFromRecords(FitnessExplorer& explorer,
                            const std::vector<SessionRecord>& records) {
  const FaultSpace& space = explorer.space();
  size_t seeded = 0;
  for (const SessionRecord& record : records) {
    if (!WarmStartEligible(space, record)) {
      continue;
    }
    explorer.WarmStart(record.fault, record.fitness);
    ++seeded;
  }
  return seeded;
}

uint64_t WarmStartFingerprint(const FaultSpace& space,
                              const std::vector<SessionRecord>& records) {
  Fnv1aHasher hasher;
  for (const SessionRecord& record : records) {
    if (!WarmStartEligible(space, record)) {
      continue;
    }
    hasher.Mix(SerializeFault(record.fault));
    hasher.Mix(FormatDouble(record.fitness));
  }
  return hasher.value();
}

}  // namespace afex
