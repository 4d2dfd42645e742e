#include "util/levenshtein.h"

#include <algorithm>

namespace afex {
namespace {

template <typename Seq>
size_t EditDistance(const Seq& a, const Seq& b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) {
    return m;
  }
  if (m == 0) {
    return n;
  }
  std::vector<size_t> prev(m + 1);
  std::vector<size_t> cur(m + 1);
  for (size_t j = 0; j <= m; ++j) {
    prev[j] = j;
  }
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= m; ++j) {
      size_t sub_cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + sub_cost});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

}  // namespace

size_t LevenshteinDistanceTokens(std::span<const std::string> a, std::span<const std::string> b) {
  return EditDistance(a, b);
}

size_t BoundedLevenshteinDistanceTokens(std::span<const uint32_t> a, std::span<const uint32_t> b,
                                        size_t limit) {
  // Keep `a` the shorter sequence (distance is symmetric) so the band walks
  // the fewer rows.
  if (a.size() > b.size()) {
    std::swap(a, b);
  }
  const size_t n = a.size();
  const size_t m = b.size();
  if (m - n > limit) {
    return limit + 1;  // length-difference lower bound
  }
  if (n == 0) {
    return m;  // m <= limit here
  }
  const size_t kOver = limit + 1;
  // Per-thread scratch rows: this runs once per representative comparison
  // on the per-test hot path, so the DP must not heap-allocate per call.
  static thread_local std::vector<size_t> prev;
  static thread_local std::vector<size_t> cur;
  prev.assign(m + 1, kOver);
  cur.assign(m + 1, kOver);
  for (size_t j = 0; j <= std::min(m, limit); ++j) {
    prev[j] = j;
  }
  for (size_t i = 1; i <= n; ++i) {
    const size_t jlo = i > limit ? i - limit : 1;
    const size_t jhi = std::min(m, i + limit);
    // Cells flanking the band must read as "over the limit" so stale values
    // from two rows ago never leak back in.
    cur[jlo - 1] = jlo == 1 ? std::min(i, kOver) : kOver;
    if (jhi < m) {
      cur[jhi + 1] = kOver;
    }
    size_t row_min = cur[jlo - 1];
    for (size_t j = jlo; j <= jhi; ++j) {
      size_t sub_cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      size_t d = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + sub_cost});
      cur[j] = std::min(d, kOver);
      row_min = std::min(row_min, cur[j]);
    }
    if (row_min > limit) {
      return kOver;  // no path through this row can come back under the limit
    }
    std::swap(prev, cur);
  }
  return std::min(prev[m], kOver);
}

}  // namespace afex
