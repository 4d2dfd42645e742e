// Fenwick (binary indexed) trees for the explorer's selection structures:
// O(log n) point update, prefix sum, and weighted-selection descent over a
// mutable array. FitnessExplorer keeps one double tree (stored fitness per
// pool slot) and one integer tree (liveness per slot) and samples both
// parent-selection and eviction victims through SelectByWeight, whose
// per-slot weight is the affine form  a * fitness[i] + b * live[i]  — that
// single shape covers "aged fitness + epsilon floor" (parent choice) and
// "max - aged fitness + 1" (inverse-fitness eviction) without ever
// materializing the O(pool) weight array the reference algorithms build.
#ifndef AFEX_UTIL_FENWICK_H_
#define AFEX_UTIL_FENWICK_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

namespace afex {

template <typename T>
class Fenwick {
 public:
  Fenwick() : tree_(1, T{}) {}

  size_t size() const { return tree_.size() - 1; }

  void Clear() { tree_.assign(1, T{}); }

  // Appends one element with the given value (amortized O(log n)).
  void Push(T value) {
    size_t i = tree_.size();  // 1-based index of the new element
    size_t lowbit = i & (~i + 1);
    for (size_t j = 1; j < lowbit; j <<= 1) {
      value += tree_[i - j];
    }
    tree_.push_back(value);
  }

  // Adds `delta` to element i (0-based).
  void Add(size_t i, T delta) {
    for (size_t j = i + 1; j < tree_.size(); j += j & (~j + 1)) {
      tree_[j] += delta;
    }
  }

  // Sum of the first `count` elements (indices [0, count)).
  T Prefix(size_t count) const {
    T sum{};
    for (size_t j = count; j > 0; j -= j & (~j + 1)) {
      sum += tree_[j];
    }
    return sum;
  }

  T Total() const { return Prefix(size()); }

  // Internal node (1-based); exposed for the two-tree descent below.
  T node(size_t i) const { return tree_[i]; }

 private:
  std::vector<T> tree_;  // tree_[0] is a sentinel
};

// Smallest 0-based index i such that the cumulative weight through element
// i strictly exceeds r, where the weight of element j is
// a * f[j] + b * c[j]; returns size()-1 when no prefix exceeds r (a draw
// that rounds up to the total weight). Requires non-negative per-element
// weights (cumulative weight non-decreasing) and f.size() == c.size() > 0.
// One synchronized descent over both trees: O(log n).
inline size_t SelectByWeight(const Fenwick<double>& f, const Fenwick<int64_t>& c, double a,
                             double b, double r) {
  size_t n = f.size();
  size_t mask = 1;
  while ((mask << 1) <= n) {
    mask <<= 1;
  }
  size_t pos = 0;
  double f_acc = 0.0;
  int64_t c_acc = 0;
  for (; mask > 0; mask >>= 1) {
    size_t next = pos + mask;
    if (next > n) {
      continue;
    }
    double cum = a * (f_acc + f.node(next)) + b * static_cast<double>(c_acc + c.node(next));
    if (!(cum > r)) {
      pos = next;
      f_acc += f.node(next);
      c_acc += c.node(next);
    }
  }
  return pos < n ? pos : n - 1;
}

// Flat segment tree over doubles answering "max over all elements" in O(1)
// (the root) with O(log n) point updates — the pool-maximum companion to
// the Fenwick sums above, replacing a multiset whose per-result node churn
// costs an allocation per insert/erase. Dead slots hold -infinity.
class MaxTree {
 public:
  size_t size() const { return size_; }

  void Clear() {
    size_ = 0;
    cap_ = 0;
    tree_.clear();
  }

  void Push(double value) {
    if (size_ == cap_) {
      Grow();
    }
    size_t i = size_++;
    Update(i, value);
  }

  void Update(size_t i, double value) {
    size_t node = cap_ + i;
    tree_[node] = value;
    for (node >>= 1; node >= 1; node >>= 1) {
      double merged = std::max(tree_[2 * node], tree_[2 * node + 1]);
      if (tree_[node] == merged) {
        break;
      }
      tree_[node] = merged;
    }
  }

  // Maximum over all pushed elements; requires size() > 0 for a meaningful
  // answer (returns -infinity otherwise).
  double Max() const { return cap_ == 0 ? kNegInf : tree_[1]; }

 private:
  static constexpr double kNegInf = -std::numeric_limits<double>::infinity();

  void Grow() {
    size_t new_cap = cap_ == 0 ? 64 : cap_ * 2;
    std::vector<double> old_leaves(tree_.begin() + static_cast<ptrdiff_t>(cap_), tree_.end());
    tree_.assign(2 * new_cap, kNegInf);
    cap_ = new_cap;
    size_t n = size_;
    size_ = 0;
    for (size_t i = 0; i < n; ++i) {
      Push(old_leaves[i]);
    }
  }

  size_t size_ = 0;
  size_t cap_ = 0;  // power of two
  std::vector<double> tree_;  // 1-based; leaves at [cap_, cap_ + size_)
};

}  // namespace afex

#endif  // AFEX_UTIL_FENWICK_H_
