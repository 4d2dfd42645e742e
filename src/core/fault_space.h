// FaultSpace: the Cartesian product of axes, possibly with holes (invalid
// attribute combinations), as defined in paper §2. Provides the geometric
// operations the search and its analysis rely on: point validity, uniform
// sampling, lexicographic enumeration, D-vicinity iteration, and the
// relative linear density metric rho.
#ifndef AFEX_CORE_FAULT_SPACE_H_
#define AFEX_CORE_FAULT_SPACE_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/axis.h"
#include "core/fault.h"
#include "util/rng.h"

namespace afex {

class FaultSpace {
 public:
  // Predicate marking holes: returns true when the fault is a *valid*
  // combination. Defaults to "everything valid".
  using ValidityFn = std::function<bool(const FaultSpace&, const Fault&)>;

  FaultSpace() = default;
  explicit FaultSpace(std::vector<Axis> axes, std::string name = "");

  const std::string& name() const { return name_; }
  size_t dimensions() const { return axes_.size(); }
  const Axis& axis(size_t i) const { return axes_.at(i); }
  const std::vector<Axis>& axes() const { return axes_; }
  std::optional<size_t> AxisIndexByName(const std::string& name) const;

  // Total number of points (including holes). Saturates at SIZE_MAX.
  size_t TotalPoints() const;

  void SetValidity(ValidityFn fn) { validity_ = std::move(fn); }
  bool IsValid(const Fault& f) const;

  // True when f's indices are all within axis bounds (ignores holes).
  bool InBounds(const Fault& f) const;

  // Uniformly random in-bounds point; holes are rejection-sampled away
  // (returns nullopt if no valid point was found in `max_attempts`).
  std::optional<Fault> SampleUniform(Rng& rng, int max_attempts = 256) const;

  // First valid point in lexicographic order, or nullopt if the space is
  // empty of valid points.
  std::optional<Fault> FirstValid() const;
  // Next valid point after f in lexicographic order.
  std::optional<Fault> NextValid(const Fault& f) const;

  // Calls fn for every in-bounds point at Manhattan distance <= D from
  // center (the D-vicinity, paper §2), including center itself.
  // Stops early if fn returns false.
  void ForEachInVicinity(const Fault& center, size_t d,
                         const std::function<bool(const Fault&)>& fn) const;

  // Relative linear density rho at `center` along axis k (paper §2):
  // the average impact of faults differing from center only along axis k,
  // restricted to the D-vicinity, divided by the average impact over the
  // whole D-vicinity. impact is queried for valid points only; invalid
  // points contribute nothing. Returns 1.0 when the vicinity has zero
  // average impact (flat surface: no direction is better than another).
  double RelativeLinearDensity(const Fault& center, size_t k, size_t d,
                               const std::function<double(const Fault&)>& impact) const;

  // Human-readable rendering, e.g. "function=close call=5 errno=EIO".
  std::string Describe(const Fault& f) const;

 private:
  std::string name_;
  std::vector<Axis> axes_;
  ValidityFn validity_;
};

// The canonical <test, function, call> space both backends explore by
// default: tests 1..num_tests, `functions` in order, and call ordinals
// 1..max_call. With `include_zero_call` the call axis starts at 0, whose
// label "0" means "run the test with no injection" (the Phi_coreutils
// convention).
FaultSpace MakeCallSpace(std::string name, size_t num_tests,
                         const std::vector<std::string>& functions, size_t max_call,
                         bool include_zero_call);

}  // namespace afex

#endif  // AFEX_CORE_FAULT_SPACE_H_
