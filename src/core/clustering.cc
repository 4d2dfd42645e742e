#include "core/clustering.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "util/levenshtein.h"

namespace afex {

namespace {
constexpr size_t kNone = std::numeric_limits<size_t>::max();
}  // namespace

double RedundancyClusterer::BestSimilarity::Value() const {
  if (!any) {
    return 0.0;
  }
  // Same expression TokenSimilarity evaluates, so the result is bit-equal
  // to a max-of-doubles scan over it.
  return 1.0 - static_cast<double>(distance) / static_cast<double>(length);
}

size_t RedundancyClusterer::BestSimilarity::MaxUsefulDistance(size_t len) const {
  if (!any) {
    return len;  // every distance is useful, and none exceeds max(n, m)
  }
  if (distance == 0) {
    return kNone;  // already at similarity 1.0; nothing strictly improves
  }
  // Largest d with d * length < distance * len.
  return (distance * len - 1) / length;
}

void RedundancyClusterer::Sweep(const std::vector<uint32_t>& ids, bool want_similarity,
                                bool want_assign, BestSimilarity& sim, size_t& best_cluster,
                                size_t& best_distance) const {
  const size_t n = ids.size();
  for (size_t i = 1; i < rep_tokens_.size(); ++i) {
    const std::vector<uint32_t>& rep = rep_tokens_[i];
    const size_t m = rep.size();
    const size_t len = std::max(n, m);
    const size_t lower_bound = n > m ? n - m : m - n;

    // Assignment only cares about distances within the threshold that beat
    // the best candidate so far (ties keep the earlier representative, as
    // a first-minimum argmin does).
    size_t assign_cut = kNone;
    if (want_assign) {
      assign_cut = config_.distance_threshold;
      if (best_distance != kNone) {
        assign_cut = std::min(assign_cut, best_distance == 0 ? 0 : best_distance - 1);
      }
    }
    // Similarity only cares about distances that strictly improve the best
    // rational distance/length seen so far.
    size_t sim_cut = kNone;
    bool sim_enabled = false;
    if (want_similarity) {
      sim_cut = sim.MaxUsefulDistance(len);
      sim_enabled = sim_cut != kNone;
    }

    size_t cutoff;
    if (want_assign && sim_enabled) {
      cutoff = std::max(assign_cut, sim_cut);
    } else if (want_assign) {
      cutoff = assign_cut;
    } else if (sim_enabled) {
      cutoff = sim_cut;
    } else {
      continue;  // neither consumer can use this representative
    }
    if (lower_bound > cutoff) {
      continue;  // length-difference prune
    }
    size_t d = BoundedLevenshteinDistanceTokens(ids, rep, cutoff);
    if (d > cutoff) {
      continue;
    }
    if (want_assign && d <= assign_cut) {
      best_distance = d;
      best_cluster = i;
    }
    if (sim_enabled && d <= sim_cut) {
      sim.any = true;
      sim.distance = d;
      sim.length = len;
    }
  }
}

double RedundancyClusterer::NearestSimilarity(const std::vector<std::string>& stack) const {
  if (stack.empty()) {
    // An empty trace has similarity 0 to every (non-empty) representative.
    return 0.0;
  }
  std::vector<uint32_t>& ids = ids_scratch_;
  interner_.LookupAll(stack, ids);
  if (auto it = rep_index_.find(ids); it != rep_index_.end()) {
    return 1.0;  // exact repeat of a representative
  }
  BestSimilarity sim;
  size_t best_cluster = kNone;
  size_t best_distance = kNone;
  Sweep(ids, /*want_similarity=*/true, /*want_assign=*/false, sim, best_cluster, best_distance);
  return sim.Value();
}

size_t RedundancyClusterer::Assign(const std::vector<std::string>& stack) {
  return Observe(stack, /*want_similarity=*/false).cluster_id;
}

ClusterObservation RedundancyClusterer::Observe(const std::vector<std::string>& stack,
                                                bool want_similarity) {
  ClusterObservation obs;
  if (stack.empty()) {
    ++sizes_[0];
    return obs;  // cluster 0, similarity 0.0
  }
  std::vector<uint32_t>& ids = ids_scratch_;
  interner_.InternAll(stack, ids);
  if (auto it = rep_index_.find(ids); it != rep_index_.end()) {
    // Repeat of a known representative: distance 0 to it, so the nearest
    // similarity is exactly 1.0 and the assignment argmin is that cluster.
    ++sizes_[it->second];
    obs.cluster_id = it->second;
    obs.similarity = want_similarity ? 1.0 : 0.0;
    return obs;
  }

  BestSimilarity sim;
  size_t best_cluster = kNone;
  size_t best_distance = kNone;
  Sweep(ids, want_similarity, /*want_assign=*/true, sim, best_cluster, best_distance);
  obs.similarity = want_similarity ? sim.Value() : 0.0;

  if (best_cluster != kNone && best_distance <= config_.distance_threshold) {
    ++sizes_[best_cluster];
    obs.cluster_id = best_cluster;
    return obs;
  }
  obs.cluster_id = representatives_.size();
  representatives_.push_back(stack);
  rep_index_.emplace(ids, obs.cluster_id);
  rep_tokens_.push_back(std::move(ids));
  sizes_.push_back(1);
  return obs;
}

}  // namespace afex
