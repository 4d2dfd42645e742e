// CampaignStore: durable, resumable, warm-startable exploration campaigns.
// The store pairs a CampaignMeta (the campaign's deterministic identity)
// with an append-only journal of executed SessionRecords, and provides the
// three lifecycle operations the CLI exposes:
//
//   * Create  — start a fresh journal; hook MakeObserver() into the
//               session config so every executed test is persisted before
//               the next one starts.
//   * Open    — load an existing journal; with an `expected` meta it
//               refuses to resume when the target, strategy, seed, space
//               fingerprint, jobs width, or feedback setting differ
//               (replaying a journal into a different configuration would
//               silently corrupt the search state).
//   * CommitResume — after the session replayed n loaded records, drop the
//               rest (a torn tail or an incomplete parallel round that will
//               re-execute) and reopen the journal for appending.
//
// Warm-start (paper §7, knowledge reuse) is a separate read-only use of a
// journal: WarmStartFromRecords seeds a fresh FitnessExplorer's priority
// pool with a prior campaign's measured fitness.
#ifndef AFEX_CAMPAIGN_STORE_H_
#define AFEX_CAMPAIGN_STORE_H_

#include <functional>
#include <string>
#include <vector>

#include "campaign/journal.h"
#include "campaign/serde.h"
#include "core/fitness_explorer.h"
#include "core/session.h"

namespace afex {

class CampaignStore {
 public:
  // Starts a fresh campaign journal at `path`, open for appending
  // immediately. Refuses to overwrite an existing file — re-running a
  // journaled command without --resume must not wipe completed work;
  // continue it with --resume or delete the file deliberately. Throws
  // CampaignError on an existing path or I/O failure.
  static CampaignStore Create(const std::string& path, const CampaignMeta& meta);

  // Loads an existing journal. Records after a torn or malformed final
  // line are dropped; a malformed line anywhere else is a hard error.
  // Not yet open for appending — call CommitResume first. Throws
  // CampaignError on I/O or parse failure.
  static CampaignStore Open(const std::string& path);

  // Open followed by Verify(expected).
  static CampaignStore Open(const std::string& path, const CampaignMeta& expected);

  // Verifies the loaded meta against `expected` and throws CampaignError
  // with a field-by-field message on mismatch. On success the store adopts
  // `expected` as its meta, so CommitResume rewrites the header as the
  // resumed campaign's.
  void Verify(const CampaignMeta& expected);

  const CampaignMeta& meta() const { return meta_; }

  // The records loaded by Open (after CommitResume: the consumed prefix).
  // Append does not grow this — the running session owns the live copy.
  const std::vector<SessionRecord>& records() const { return records_; }

  // Finalizes a resume after the session consumed the first `n` loaded
  // records: drops the rest, atomically rewrites the journal to exactly
  // header + n records, and reopens it for appending.
  void CommitResume(size_t n);

  // Appends one record (write + flush). Requires Create or CommitResume.
  void Append(const SessionRecord& record);

  // Session observer that appends every executed record; bind into
  // SessionConfig::record_observer. The store must outlive the session.
  std::function<void(const SessionRecord&)> MakeObserver();

  // Attaches a telemetry sink to the journal (append/flush timing, flush
  // gauge). Sticky across CommitResume's journal reopen. Null detaches.
  void SetMetricsSink(obs::MetricsSink* sink) {
    metrics_ = sink;
    journal_.set_metrics_sink(sink);
  }

  // Sorted, deduplicated union of new_block_ids over the loaded records
  // executed by node `node` (under round-batched parallel execution,
  // record i ran on node i % meta().jobs). Used to re-seed that node's
  // coverage accumulator on resume; for serial campaigns, node 0 covers
  // every record.
  std::vector<uint32_t> CoverageIdsForNode(size_t node) const;

 private:
  CampaignStore(std::string path, CampaignMeta meta)
      : path_(std::move(path)), meta_(std::move(meta)) {}

  std::string path_;
  CampaignMeta meta_;
  std::vector<SessionRecord> records_;
  Journal journal_;
  obs::MetricsSink* metrics_ = nullptr;
};

// Seeds `explorer` with a prior campaign's results: every record with
// positive fitness whose fault fits the explorer's space enters the
// priority pool via FitnessExplorer::WarmStart. Records from an
// incompatible space (wrong dimensionality, out of bounds, invalid) are
// skipped, so cross-space reuse degrades gracefully. Returns the number of
// records seeded.
size_t WarmStartFromRecords(FitnessExplorer& explorer,
                            const std::vector<SessionRecord>& records);

// Fingerprint of the knowledge WarmStartFromRecords would seed into an
// explorer over `space` (the eligible (fault, fitness) sequence). Stored
// in CampaignMeta::warm_fingerprint so a warm-started journal can only be
// resumed by re-applying exactly the same seeds.
uint64_t WarmStartFingerprint(const FaultSpace& space,
                              const std::vector<SessionRecord>& records);

}  // namespace afex

#endif  // AFEX_CAMPAIGN_STORE_H_
