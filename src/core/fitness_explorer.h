// Fitness-guided fault exploration — the paper's Algorithm 1 plus the aging
// mechanism described alongside it (§3). In essence a stochastic beam search:
// a bounded pool of executed high-fitness tests (Qpriority) is sampled
// fitness-proportionally for a parent; one attribute — chosen proportionally
// to per-axis *sensitivity* (recent fitness gain of mutations along that
// axis) — is mutated by a discrete Gaussian centered on the parent's value;
// duplicates are suppressed via a history set; queued fitness ages so the
// search cannot camp forever on one vicinity.
//
// Because candidate generation runs once per executed test, the default
// implementation keeps its per-test cost logarithmic in the pool: the pool
// lives in a slot vector with tombstones, two Fenwick trees (stored fitness
// and liveness per slot) answer both the parent-selection draw and the
// inverse-fitness eviction draw in one O(log pool) descent
// (util/fenwick.h's SelectByWeight), the pool maximum comes from a flat
// segment tree (util/fenwick.h's MaxTree),
// aging is a single global decay scalar, retirement pops an insertion-order
// queue (aged fitness decays uniformly, so entries retire in insertion
// order) instead of sweeping the pool, and the last-resort lexicographic
// scan for unissued points resumes from a cached cursor. Tombstones are
// compacted away once they outnumber live entries, so the amortized cost
// per reported result is O(log pool). The original implementation is
// retained behind FitnessExplorerConfig::reference_algorithms; both consume
// the RNG stream identically by construction, and the floating-point
// reformulations (lazy decay, Fenwick partial sums) are kept on the same
// side of every comparison in practice — the regression suite and the perf
// benchmark run whole campaigns in both modes and assert identical record
// sequences.
#ifndef AFEX_CORE_FITNESS_EXPLORER_H_
#define AFEX_CORE_FITNESS_EXPLORER_H_

#include <deque>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/explorer.h"
#include "util/fenwick.h"
#include "util/rng.h"

namespace afex {

struct FitnessExplorerConfig {
  uint64_t seed = 1;

  // Size of the initial random batch (Algorithm step 1).
  size_t initial_batch = 16;

  // Capacity of Qpriority; on overflow an entry is evicted, sampled with
  // probability inversely proportional to fitness (paper §3).
  size_t priority_capacity = 64;

  // Sensitivity of axis i = sum of the fitness of the last
  // `sensitivity_window` executed tests whose generation mutated axis i.
  size_t sensitivity_window = 32;

  // Gaussian mutation sigma = sigma_fraction * |A_i|. The paper evaluates
  // with sigma = |A_i| / 5.
  double sigma_fraction = 0.2;

  // Aging: every reported result multiplies all queued fitness by this
  // factor; an entry retires (leaves Qpriority for good) once its fitness
  // falls below retirement_fraction of its original impact.
  double aging_decay = 0.98;
  double retirement_fraction = 0.05;

  // Run the original algorithms: per-attempt weight/max-fitness rebuilds in
  // the mutation retry loop, O(pool) eviction weight scans and retirement
  // sweeps per result, eager aging, and from-scratch lexicographic fallback
  // scans. Kept for the equivalence regression tests and as the perf-bench
  // baseline; the candidate sequence is identical to the optimized path for
  // the same seed.
  bool reference_algorithms = false;
};

class FitnessExplorer : public Explorer {
 public:
  FitnessExplorer(const FaultSpace& space, FitnessExplorerConfig config = {});

  const FaultSpace& space() const override { return *space_; }
  std::optional<Fault> NextCandidate() override;
  void ReportResult(const Fault& fault, double fitness) override;
  size_t issued_count() const override { return issued_.size(); }

  // Pre-seeds the search with knowledge from a prior campaign (paper §7,
  // knowledge reuse): the fault enters Qpriority as if it had just executed
  // with the given fitness, and is marked issued so this session never
  // re-executes it. Call before the first NextCandidate(); seeded entries
  // count toward the initial random batch, so a well-seeded search starts
  // mutating the known high-fitness vicinities immediately.
  void WarmStart(const Fault& fault, double fitness);

  // Pre-seeds a *prior* rather than a result (static analysis, paper §7):
  // the fault enters Qpriority with the given fitness so parent selection
  // is biased toward its vicinity, but is NOT marked issued — the search
  // may still execute it. Hints age like any pool entry and are displaced
  // by real results through the ordinary eviction lottery; they never
  // retire (retirement is relative to reported impact, which a hint does
  // not have). Call before the first NextCandidate().
  void SeedPriorityHint(const Fault& fault, double fitness);

  // Normalized per-axis sensitivity (sums to 1); exposed for the structure
  // experiments (paper §7.3 inspects its convergence).
  std::vector<double> NormalizedSensitivity() const;

  // Current number of live entries in Qpriority.
  size_t priority_queue_size() const {
    return config_.reference_algorithms ? priority_.size() : live_count_;
  }

 private:
  struct Entry {
    Fault fault;
    // Reference mode: the aged fitness, multiplied down in place per
    // result. Optimized mode: fitness normalized by the decay scale at
    // insert time, so the current aged value is fitness * decay_scale_ and
    // aging the whole pool is one scalar multiply.
    double fitness;
    double impact;  // as reported, never aged
  };
  struct RetireRecord {
    size_t slot;
    uint64_t gen;
  };

  // Qpending ∪ History ∪ Qpriority. The optimized path stores membership as
  // a bitmap over the space's mixed-radix ordinal when the space is small
  // enough (every canonical target space is), turning the per-candidate
  // dedup checks — several per executed test — into one bit probe instead
  // of hashing a heap-allocated fault vector into a node-based set; the
  // reference path (and spaces beyond the bitmap limit) keeps the hash set.
  class IssuedSet {
   public:
    void Init(const FaultSpace& space, bool use_bitmap);
    bool Contains(const Fault& f) const;
    void Insert(const Fault& f);
    size_t size() const { return count_; }

   private:
    static constexpr size_t kBitmapLimit = size_t{1} << 24;  // 2 MiB of bits

    // Mixed-radix ordinal, or SIZE_MAX when f is out of bounds (possible
    // only for warm-start faults from a foreign journal).
    size_t Ordinal(const Fault& f) const;

    std::vector<size_t> strides_;  // empty = hash mode
    std::vector<size_t> cardinalities_;
    std::vector<bool> bits_;
    std::unordered_set<Fault, FaultHash> hashed_;  // hash mode + out-of-bounds
    size_t count_ = 0;
  };

  std::optional<Fault> SampleRandomNovel();
  std::optional<Fault> GenerateMutation();
  // Last-resort lexicographic sweep for any unissued valid point.
  std::optional<Fault> ScanForUnissued();
  void InsertIntoPriority(Entry entry);
  void AgeAndRetire();
  bool PoolEmpty() const {
    return config_.reference_algorithms ? priority_.empty() : live_count_ == 0;
  }
  bool AlreadyIssued(const Fault& f) const { return issued_.Contains(f); }

  // ---- optimized-path pool maintenance (tombstoned slots + Fenwicks) ----
  void AppendSlot(Entry entry);
  void ReplaceSlot(size_t slot, Entry entry);
  void KillSlot(size_t slot);
  // k-th (0-based) live slot, via the liveness tree.
  size_t NthLiveSlot(size_t k) const;
  // Nearest live slot at or before `slot` (descent clamps can land on a
  // trailing tombstone when the draw rounds up to the total weight).
  size_t LiveSlotAtOrBefore(size_t slot) const;
  size_t SampleParentSlot();
  size_t SampleEvictionVictim();
  void RebuildSelectionStructures();
  void MaybeCompact();

  const FaultSpace* space_;
  FitnessExplorerConfig config_;
  Rng rng_;

  // Qpriority. Reference mode: every element live, erase_if compaction.
  // Optimized mode: slot vector with tombstones (slot_live_), compacted
  // once tombstones dominate.
  std::vector<Entry> priority_;
  IssuedSet issued_;
  // Which axis was mutated to generate each outstanding candidate; absent
  // for random candidates. At most a handful of candidates are ever
  // outstanding (one per in-flight node), so a flat vector with linear
  // lookup beats hashing a fault per report.
  std::vector<std::pair<Fault, size_t>> pending_axis_;
  // Sliding window of recent mutation fitness per axis.
  std::vector<std::deque<double>> axis_history_;
  std::vector<double> sensitivity_;
  size_t exhausted_probes_ = 0;  // consecutive failures to find novelty

  // ---- optimized-path state (unused under reference_algorithms) ----
  // Global aging scalar: aged fitness of entry e = e.fitness * decay_scale_.
  // Renormalized back to 1.0 before it can underflow on long campaigns.
  double decay_scale_ = 1.0;
  std::vector<uint8_t> slot_live_;
  std::vector<uint64_t> slot_gen_;  // bumped on evict/retire; stales queue records
  size_t live_count_ = 0;
  size_t dead_count_ = 0;
  Fenwick<double> fit_fen_;    // stored (decay-normalized) fitness per slot; 0 when dead
  Fenwick<int64_t> live_fen_;  // 1 per live slot
  MaxTree max_fitness_;        // max stored fitness per slot; -inf when dead
  // Entries retire in insertion order (stored fitness is impact/decay-at-
  // insert, so the aged-below-threshold time is monotone in insertion
  // time); this queue holds the impact>0 slots in that order and the sweep
  // pops only what actually retires.
  std::deque<RetireRecord> retire_queue_;
  // Resume point of the lexicographic fallback scan. Issued points never
  // become unissued, so everything before the cursor stays skippable and
  // the whole-campaign scan cost is one walk of the space, not one per call.
  std::optional<Fault> scan_cursor_;
  bool scan_exhausted_ = false;
};

}  // namespace afex

#endif  // AFEX_CORE_FITNESS_EXPLORER_H_
