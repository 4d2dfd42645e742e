#include "core/fitness_explorer.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>

#include "util/gaussian.h"

namespace afex {
namespace {

// Epsilon floor on parent-selection weights so zero-fitness tests retain a
// small chance of being chosen (Algorithm 1 line 2).
constexpr double kMinSelectionWeight = 0.05;

// Probability of issuing a fresh uniform-random candidate instead of a
// mutation; keeps discovering new vicinities (complements aging).
constexpr double kRandomRestartProb = 0.05;

// Attempts at producing a novel, valid mutation before falling back to a
// random sample.
constexpr int kMaxGenerationAttempts = 64;

}  // namespace

FitnessExplorer::FitnessExplorer(const FaultSpace& space, FitnessExplorerConfig config)
    : space_(&space),
      config_(config),
      rng_(config.seed),
      axis_history_(space.dimensions()),
      sensitivity_(space.dimensions(), 1.0) {
  assert(space.dimensions() > 0);
  issued_.Init(space, /*use_bitmap=*/!config_.reference_algorithms);
}

// ---- IssuedSet ----

void FitnessExplorer::IssuedSet::Init(const FaultSpace& space, bool use_bitmap) {
  if (!use_bitmap || space.TotalPoints() > kBitmapLimit) {
    return;  // hash mode
  }
  cardinalities_.reserve(space.dimensions());
  strides_.reserve(space.dimensions());
  size_t stride = 1;
  for (size_t i = 0; i < space.dimensions(); ++i) {
    cardinalities_.push_back(space.axis(i).cardinality());
    strides_.push_back(stride);
    stride *= cardinalities_.back();
  }
  bits_.assign(stride, false);
}

size_t FitnessExplorer::IssuedSet::Ordinal(const Fault& f) const {
  size_t ordinal = 0;
  for (size_t i = 0; i < strides_.size(); ++i) {
    if (f[i] >= cardinalities_[i]) {
      return SIZE_MAX;
    }
    ordinal += f[i] * strides_[i];
  }
  return ordinal;
}

bool FitnessExplorer::IssuedSet::Contains(const Fault& f) const {
  if (strides_.empty()) {
    return hashed_.contains(f);
  }
  size_t ordinal = Ordinal(f);
  return ordinal == SIZE_MAX ? hashed_.contains(f) : bits_[ordinal];
}

void FitnessExplorer::IssuedSet::Insert(const Fault& f) {
  if (!strides_.empty()) {
    size_t ordinal = Ordinal(f);
    if (ordinal != SIZE_MAX) {
      if (!bits_[ordinal]) {
        bits_[ordinal] = true;
        ++count_;
      }
      return;
    }
  }
  count_ += hashed_.insert(f).second ? 1 : 0;
}

std::optional<Fault> FitnessExplorer::NextCandidate() {
  // Step 1 of the algorithm: seed the pool with random tests. Also fall back
  // to random whenever the pool is empty (e.g. all entries retired) and mix
  // in occasional random restarts.
  bool want_random = issued_.size() < config_.initial_batch || PoolEmpty() ||
                     rng_.NextBernoulli(kRandomRestartProb);
  if (!want_random) {
    if (auto mutation = GenerateMutation()) {
      exhausted_probes_ = 0;
      return mutation;
    }
    // Mutation space around the pool is exhausted; fall through to random.
  }
  if (auto random = SampleRandomNovel()) {
    exhausted_probes_ = 0;
    return random;
  }
  // Both mutation and random sampling failed to find novelty. Scan
  // lexicographically for any unvisited valid point before giving up; this
  // keeps the guarantee that coverage grows with budget (paper §3: AFEX
  // "does not discard any tests, rather only prioritizes their execution").
  return ScanForUnissued();
}

std::optional<Fault> FitnessExplorer::ScanForUnissued() {
  if (config_.reference_algorithms) {
    for (auto f = space_->FirstValid(); f.has_value(); f = space_->NextValid(*f)) {
      if (!AlreadyIssued(*f)) {
        issued_.Insert(*f);
        return f;
      }
    }
    return std::nullopt;
  }
  // Points are never un-issued, so everything the cursor has passed stays
  // ineligible forever and the scan can resume where it last stopped; the
  // whole campaign pays for at most one walk of the space in total.
  if (scan_exhausted_) {
    return std::nullopt;
  }
  for (auto f = scan_cursor_.has_value() ? space_->NextValid(*scan_cursor_)
                                         : space_->FirstValid();
       f.has_value(); f = space_->NextValid(*f)) {
    scan_cursor_ = *f;
    if (!AlreadyIssued(*f)) {
      issued_.Insert(*f);
      return f;
    }
  }
  scan_exhausted_ = true;
  return std::nullopt;
}

std::optional<Fault> FitnessExplorer::SampleRandomNovel() {
  for (int attempt = 0; attempt < kMaxGenerationAttempts; ++attempt) {
    auto f = space_->SampleUniform(rng_);
    if (f && !AlreadyIssued(*f)) {
      issued_.Insert(*f);
      return f;
    }
  }
  return std::nullopt;
}

std::optional<Fault> FitnessExplorer::GenerateMutation() {
  assert(!PoolEmpty());
  for (int attempt = 0; attempt < kMaxGenerationAttempts; ++attempt) {
    // Lines 1-4: sample a parent proportionally to fitness, with an epsilon
    // floor so low-fitness tests keep a non-zero chance.
    size_t parent_slot;
    if (config_.reference_algorithms) {
      double max_fitness = 0.0;
      for (const Entry& e : priority_) {
        max_fitness = std::max(max_fitness, e.fitness);
      }
      std::vector<double> weights;
      weights.reserve(priority_.size());
      double floor = kMinSelectionWeight * std::max(max_fitness, 1.0);
      for (const Entry& e : priority_) {
        weights.push_back(e.fitness + floor);
      }
      parent_slot = rng_.SampleWeighted(weights);
    } else {
      parent_slot = SampleParentSlot();
    }
    const Entry& parent = priority_[parent_slot];

    // Lines 5-6: choose the attribute to mutate proportionally to the
    // normalized sensitivity vector.
    size_t axis = rng_.SampleWeighted(sensitivity_);
    size_t cardinality = space_->axis(axis).cardinality();
    if (cardinality <= 1) {
      continue;  // nothing to mutate on this axis
    }

    // Lines 7-11: Gaussian-mutate that attribute, clone the parent.
    double sigma = config_.sigma_fraction * static_cast<double>(cardinality);
    size_t new_value =
        SampleDiscreteGaussianExcludingCenter(rng_, parent.fault[axis], sigma, cardinality);
    Fault child = parent.fault;
    child[axis] = new_value;

    // Lines 12-14: only enqueue genuinely new, valid tests.
    if (AlreadyIssued(child) || !space_->IsValid(child)) {
      continue;
    }
    issued_.Insert(child);
    pending_axis_.push_back({child, axis});
    return child;
  }
  return std::nullopt;
}

void FitnessExplorer::ReportResult(const Fault& fault, double fitness) {
  // Sensitivity update: credit the axis whose mutation produced this test.
  size_t pending = pending_axis_.size();
  for (size_t i = 0; i < pending_axis_.size(); ++i) {
    if (pending_axis_[i].first == fault) {
      pending = i;
      break;
    }
  }
  if (pending != pending_axis_.size()) {
    size_t axis = pending_axis_[pending].second;
    if (pending != pending_axis_.size() - 1) {
      pending_axis_[pending] = std::move(pending_axis_.back());
    }
    pending_axis_.pop_back();
    auto& window = axis_history_[axis];
    window.push_back(fitness);
    while (window.size() > config_.sensitivity_window) {
      window.pop_front();
    }
    double sum = 0.0;
    for (double v : window) {
      sum += v;
    }
    // Keep the 1.0 baseline so axes that have not paid off recently still
    // get occasional exploration (and normalization stays well-defined).
    sensitivity_[axis] = 1.0 + sum;
  }

  InsertIntoPriority(Entry{fault, fitness, fitness});
  AgeAndRetire();
}

void FitnessExplorer::WarmStart(const Fault& fault, double fitness) {
  if (AlreadyIssued(fault)) {
    return;
  }
  issued_.Insert(fault);
  InsertIntoPriority(Entry{fault, fitness, fitness});
}

void FitnessExplorer::SeedPriorityHint(const Fault& fault, double fitness) {
  // impact = 0 keeps the hint out of the retirement queue (its stored
  // fitness would violate the queue's insertion-order invariant otherwise)
  // and means it ages but never retires — it just loses the eviction
  // lottery once real results arrive.
  InsertIntoPriority(Entry{fault, fitness, 0.0});
}

// ---- optimized-path pool maintenance ----

void FitnessExplorer::AppendSlot(Entry entry) {
  size_t slot = priority_.size();
  priority_.push_back(std::move(entry));
  slot_live_.push_back(1);
  slot_gen_.push_back(0);
  fit_fen_.Push(priority_[slot].fitness);
  live_fen_.Push(1);
  max_fitness_.Push(priority_[slot].fitness);
  ++live_count_;
  if (priority_[slot].impact > 0.0) {
    retire_queue_.push_back(RetireRecord{slot, slot_gen_[slot]});
  }
}

void FitnessExplorer::ReplaceSlot(size_t slot, Entry entry) {
  fit_fen_.Add(slot, entry.fitness - priority_[slot].fitness);
  ++slot_gen_[slot];  // stale any queued retirement record for the victim
  priority_[slot] = std::move(entry);
  max_fitness_.Update(slot, priority_[slot].fitness);
  if (priority_[slot].impact > 0.0) {
    retire_queue_.push_back(RetireRecord{slot, slot_gen_[slot]});
  }
}

void FitnessExplorer::KillSlot(size_t slot) {
  fit_fen_.Add(slot, -priority_[slot].fitness);
  live_fen_.Add(slot, -1);
  max_fitness_.Update(slot, -std::numeric_limits<double>::infinity());
  slot_live_[slot] = 0;
  ++slot_gen_[slot];
  --live_count_;
  ++dead_count_;
}

size_t FitnessExplorer::NthLiveSlot(size_t k) const {
  return SelectByWeight(fit_fen_, live_fen_, 0.0, 1.0, static_cast<double>(k));
}

size_t FitnessExplorer::LiveSlotAtOrBefore(size_t slot) const {
  while (slot > 0 && !slot_live_[slot]) {
    --slot;
  }
  return slot;
}

size_t FitnessExplorer::SampleParentSlot() {
  // Same distribution (and the same single RNG draw) as the reference
  // SampleWeighted over {aged fitness + floor}, answered by the Fenwick
  // descent instead of a materialized weight array.
  double max_fitness = live_count_ == 0 ? 0.0 : max_fitness_.Max() * decay_scale_;
  double floor = kMinSelectionWeight * std::max(max_fitness, 1.0);
  double total = decay_scale_ * fit_fen_.Total() +
                 floor * static_cast<double>(live_count_);
  if (total <= 0.0) {
    return NthLiveSlot(rng_.NextBelow(live_count_));
  }
  double r = rng_.NextDouble() * total;
  return LiveSlotAtOrBefore(SelectByWeight(fit_fen_, live_fen_, decay_scale_, floor, r));
}

size_t FitnessExplorer::SampleEvictionVictim() {
  // Inverse-fitness eviction weights: max_eff - eff(e) + 1 per live slot.
  double max_eff = live_count_ == 0 ? 0.0 : max_fitness_.Max() * decay_scale_;
  double total = static_cast<double>(live_count_) * (max_eff + 1.0) -
                 decay_scale_ * fit_fen_.Total();
  if (total <= 0.0) {
    return NthLiveSlot(rng_.NextBelow(live_count_));
  }
  double r = rng_.NextDouble() * total;
  return LiveSlotAtOrBefore(
      SelectByWeight(fit_fen_, live_fen_, -decay_scale_, max_eff + 1.0, r));
}

void FitnessExplorer::RebuildSelectionStructures() {
  fit_fen_.Clear();
  live_fen_.Clear();
  max_fitness_.Clear();
  for (size_t i = 0; i < priority_.size(); ++i) {
    bool live = slot_live_[i] != 0;
    fit_fen_.Push(live ? priority_[i].fitness : 0.0);
    live_fen_.Push(live ? 1 : 0);
    max_fitness_.Push(live ? priority_[i].fitness
                           : -std::numeric_limits<double>::infinity());
  }
}

void FitnessExplorer::MaybeCompact() {
  if (dead_count_ <= live_count_ + 64) {
    return;
  }
  std::vector<Entry> compact;
  compact.reserve(live_count_);
  std::vector<size_t> remap(priority_.size(), SIZE_MAX);
  for (size_t i = 0; i < priority_.size(); ++i) {
    if (slot_live_[i]) {
      remap[i] = compact.size();
      compact.push_back(std::move(priority_[i]));
    }
  }
  std::deque<RetireRecord> queue;
  for (const RetireRecord& record : retire_queue_) {
    if (record.gen == slot_gen_[record.slot] && slot_live_[record.slot]) {
      queue.push_back(RetireRecord{remap[record.slot], 0});
    }
  }
  priority_ = std::move(compact);
  retire_queue_ = std::move(queue);
  slot_live_.assign(priority_.size(), 1);
  slot_gen_.assign(priority_.size(), 0);
  dead_count_ = 0;
  RebuildSelectionStructures();
}

void FitnessExplorer::InsertIntoPriority(Entry entry) {
  if (config_.reference_algorithms) {
    if (priority_.size() < config_.priority_capacity) {
      priority_.push_back(std::move(entry));
      return;
    }
    // Evict a victim sampled with probability inversely proportional to
    // fitness, so the queue's average fitness rises over time (paper §3).
    double max_fitness = 0.0;
    for (const Entry& e : priority_) {
      max_fitness = std::max(max_fitness, e.fitness);
    }
    std::vector<double> weights;
    weights.reserve(priority_.size());
    for (const Entry& e : priority_) {
      weights.push_back(max_fitness - e.fitness + 1.0);
    }
    size_t victim = rng_.SampleWeighted(weights);
    priority_[victim] = std::move(entry);
    return;
  }
  // Store normalized by the current decay scale, so this entry ages in
  // lockstep with the pool through the one global scalar.
  entry.fitness /= decay_scale_;
  if (live_count_ < config_.priority_capacity) {
    AppendSlot(std::move(entry));
    return;
  }
  ReplaceSlot(SampleEvictionVictim(), std::move(entry));
}

void FitnessExplorer::AgeAndRetire() {
  if (config_.reference_algorithms) {
    for (Entry& e : priority_) {
      e.fitness *= config_.aging_decay;
    }
    std::erase_if(priority_, [this](const Entry& e) {
      return e.impact > 0.0 && e.fitness < config_.retirement_fraction * e.impact;
    });
    return;
  }
  // Lazy aging: one scalar multiply ages the whole pool.
  decay_scale_ *= config_.aging_decay;
  if (decay_scale_ < 1e-150) {
    // Fold the scale back into the entries before it can underflow (only
    // reachable on campaigns of tens of thousands of results). Stored
    // fitness/impact ratios are preserved, so the retirement order is too.
    for (size_t i = 0; i < priority_.size(); ++i) {
      if (slot_live_[i]) {
        priority_[i].fitness *= decay_scale_;
      }
    }
    decay_scale_ = 1.0;
    RebuildSelectionStructures();
  }
  // Stored fitness of an impact>0 entry is impact / decay-at-insert, so its
  // aged fitness crosses the retirement threshold a fixed number of results
  // after insertion: entries retire in insertion order, and the queue's
  // front is the only candidate that can retire this round.
  while (!retire_queue_.empty()) {
    RetireRecord record = retire_queue_.front();
    if (record.gen != slot_gen_[record.slot] || !slot_live_[record.slot]) {
      retire_queue_.pop_front();  // evicted since it was queued
      continue;
    }
    const Entry& e = priority_[record.slot];
    if (!(e.impact > 0.0 &&
          e.fitness * decay_scale_ < config_.retirement_fraction * e.impact)) {
      break;
    }
    retire_queue_.pop_front();
    KillSlot(record.slot);
  }
  MaybeCompact();
}

std::vector<double> FitnessExplorer::NormalizedSensitivity() const {
  double total = 0.0;
  for (double s : sensitivity_) {
    total += s;
  }
  std::vector<double> out(sensitivity_.size(), 0.0);
  if (total <= 0.0) {
    return out;
  }
  for (size_t i = 0; i < sensitivity_.size(); ++i) {
    out[i] = sensitivity_[i] / total;
  }
  return out;
}

}  // namespace afex
