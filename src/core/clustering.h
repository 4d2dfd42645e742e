// Redundancy clustering (paper §5): faults whose injection-point stack
// traces are within a Levenshtein-distance threshold are manifestations of
// the same system behaviour and land in the same equivalence class. The
// clusterer is also used *online* in a feedback loop (§7.4): the fitness of
// a new test is scaled down by its similarity to previously seen traces,
// steering exploration away from re-triggering the same underlying bug.
//
// The online use makes this a per-test cost, so the implementation is
// engineered for throughput: frames are interned to integer token ids, a
// whole-stack exact-match memo resolves repeat traces (the common case)
// without any edit-distance work, the feedback similarity and the cluster
// assignment are computed in one combined sweep over the representatives,
// and each representative is compared with a length-difference prune plus a
// cutoff-banded distance that aborts once it can no longer beat the best
// candidate so far. Results equal a full pairwise Levenshtein scan bit for
// bit: ties keep the earlier representative and the similarity is the
// max-of-doubles such a scan computes.
//
// Assignments and similarities are frozen by committed goldens:
// feedback_perf_test holds one digest per distance threshold and
// bench/perf_sim holds every benchmark cell's record digest. A change that
// alters them on purpose copies the printed digest into the golden and
// explains why in CHANGES.md.
#ifndef AFEX_CORE_CLUSTERING_H_
#define AFEX_CORE_CLUSTERING_H_

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/interner.h"

namespace afex {

struct ClusterConfig {
  // Two traces whose token-level edit distance is <= this threshold are
  // considered redundant (same cluster). The default of 0 (exact match)
  // suits the synthetic frame-per-subsystem stacks of the simulated
  // targets, where one frame of difference already means a different
  // failing callsite; real, deep backtraces warrant a larger threshold.
  size_t distance_threshold = 0;
};

// Result of one combined feedback-and-assignment pass.
struct ClusterObservation {
  size_t cluster_id = 0;
  // Similarity in [0,1] to the nearest representative *before* this stack
  // was assigned; 0.0 unless requested (and 0.0 when nothing was seen yet).
  double similarity = 0.0;
};

class RedundancyClusterer {
 public:
  explicit RedundancyClusterer(ClusterConfig config = {}) : config_(config) {
    // Slot 0 is permanently reserved for "fault never triggered" (empty
    // trace), so cluster ids handed out earlier never shift.
    representatives_.push_back({});
    rep_tokens_.push_back({});
    sizes_.push_back(0);
  }

  // Similarity in [0,1] of `stack` to the nearest cluster representative
  // seen so far; 0 when no traces have been added yet. Used by the feedback
  // loop: fitness *= (1 - similarity) on a linear scale (paper §7.4 — 100%
  // similarity zeroes the fitness, 0% leaves it unmodified).
  double NearestSimilarity(const std::vector<std::string>& stack) const;

  // Assigns `stack` to a cluster (the nearest representative within the
  // distance threshold, else a brand-new cluster) and returns the cluster
  // id. Empty stacks (fault never triggered) all share cluster 0, which is
  // reserved for them.
  size_t Assign(const std::vector<std::string>& stack);

  // NearestSimilarity (when `want_similarity`) and Assign fused into one
  // sweep over the representatives — the similarity is measured against the
  // representative set as it stood before the assignment, exactly as the
  // two separate calls would. This is what the per-test session path uses.
  ClusterObservation Observe(const std::vector<std::string>& stack, bool want_similarity);

  // Number of clusters with at least one member, including the reserved
  // empty-trace cluster once anything has been assigned to it.
  size_t cluster_count() const {
    return representatives_.size() - (sizes_[0] == 0 ? 1 : 0);
  }

  // Representative trace of a cluster (empty for the reserved cluster 0).
  const std::vector<std::string>& representative(size_t cluster_id) const {
    return representatives_.at(cluster_id);
  }

  // Number of members assigned to each cluster.
  const std::vector<size_t>& cluster_sizes() const { return sizes_; }

 private:
  // Best similarity seen so far, tracked as the exact rational distance/len
  // pair so pruning decisions never depend on floating-point rounding. The
  // final double is produced once, from the winning pair, which yields the
  // bit-identical value a max-of-doubles scan over TokenSimilarity computes.
  struct BestSimilarity {
    bool any = false;
    size_t distance = 0;
    size_t length = 1;
    double Value() const;
    // Largest distance a representative of length `len` could have and
    // still strictly improve on the current best (d/len < distance/length,
    // decided exactly in integers); kNone when nothing can improve.
    size_t MaxUsefulDistance(size_t len) const;
  };

  // One pass over representatives_[1..]: fills the nearest-similarity state
  // (when want_similarity) and the best in-threshold assignment candidate
  // (when want_assign). `ids` is the interned query.
  void Sweep(const std::vector<uint32_t>& ids, bool want_similarity, bool want_assign,
             BestSimilarity& sim, size_t& best_cluster, size_t& best_distance) const;

  ClusterConfig config_;
  std::vector<std::vector<std::string>> representatives_;  // [0] reserved
  std::vector<size_t> sizes_;

  // Interner is mutated only by the non-const Observe/Assign path; const
  // queries translate through read-only lookups.
  StringInterner interner_;
  std::vector<std::vector<uint32_t>> rep_tokens_;  // parallel to representatives_
  // Exact-match memo: interned representative trace -> cluster id. Every
  // repeat of a known representative resolves here in O(|stack|).
  std::unordered_map<std::vector<uint32_t>, size_t, TokenSeqHash> rep_index_;
  // Reused per-observation buffer for the interned query (mutable so the
  // const similarity query can use it too); left empty after a move into
  // rep_tokens_, which the next use's clear-and-fill handles.
  mutable std::vector<uint32_t> ids_scratch_;
};

}  // namespace afex

#endif  // AFEX_CORE_CLUSTERING_H_
