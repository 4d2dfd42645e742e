// Levenshtein (edit) distance, used by AFEX's redundancy clustering (paper
// §5): two injected faults whose injection-point stack traces are within a
// distance threshold are considered manifestations of the same behaviour.
#ifndef AFEX_UTIL_LEVENSHTEIN_H_
#define AFEX_UTIL_LEVENSHTEIN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace afex {

// Token-level edit distance with two-row dynamic programming: stack traces
// are sequences of frames, and a one-frame difference should cost 1
// regardless of how long the frame's symbol name is. The unbounded
// reference for BoundedLevenshteinDistanceTokens.
size_t LevenshteinDistanceTokens(std::span<const std::string> a, std::span<const std::string> b);

// Cutoff-bounded token edit distance over interned token ids. Returns the
// exact distance when it is <= limit, and limit + 1 otherwise. Runs the DP
// banded to the diagonal (Ukkonen): only cells within `limit` of the
// diagonal are computed, and the sweep aborts as soon as a whole row
// exceeds the limit — O(min(n,m) * limit) instead of O(n * m). The
// length-difference lower bound |n - m| is applied before any DP work.
size_t BoundedLevenshteinDistanceTokens(std::span<const uint32_t> a, std::span<const uint32_t> b,
                                        size_t limit);

}  // namespace afex

#endif  // AFEX_UTIL_LEVENSHTEIN_H_
