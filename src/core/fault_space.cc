#include "core/fault_space.h"

#include <cassert>
#include <limits>

namespace afex {

FaultSpace::FaultSpace(std::vector<Axis> axes, std::string name)
    : name_(std::move(name)), axes_(std::move(axes)) {}

std::optional<size_t> FaultSpace::AxisIndexByName(const std::string& name) const {
  for (size_t i = 0; i < axes_.size(); ++i) {
    if (axes_[i].name() == name) {
      return i;
    }
  }
  return std::nullopt;
}

size_t FaultSpace::TotalPoints() const {
  if (axes_.empty()) {
    return 0;
  }
  size_t total = 1;
  for (const Axis& a : axes_) {
    size_t c = a.cardinality();
    if (c != 0 && total > std::numeric_limits<size_t>::max() / c) {
      return std::numeric_limits<size_t>::max();
    }
    total *= c;
  }
  return total;
}

bool FaultSpace::InBounds(const Fault& f) const {
  if (f.dimensions() != axes_.size()) {
    return false;
  }
  for (size_t i = 0; i < axes_.size(); ++i) {
    if (f[i] >= axes_[i].cardinality()) {
      return false;
    }
  }
  return true;
}

bool FaultSpace::IsValid(const Fault& f) const {
  if (!InBounds(f)) {
    return false;
  }
  return !validity_ || validity_(*this, f);
}

std::optional<Fault> FaultSpace::SampleUniform(Rng& rng, int max_attempts) const {
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    Fault f;
    for (size_t i = 0; i < axes_.size(); ++i) {
      f.Append(rng.NextBelow(axes_[i].cardinality()));
    }
    if (IsValid(f)) {
      return f;
    }
  }
  return std::nullopt;
}

std::optional<Fault> FaultSpace::FirstValid() const {
  if (axes_.empty()) {
    return std::nullopt;
  }
  Fault f;
  for (size_t i = 0; i < axes_.size(); ++i) {
    f.Append(0);
  }
  if (IsValid(f)) {
    return f;
  }
  return NextValid(f);
}

std::optional<Fault> FaultSpace::NextValid(const Fault& start) const {
  Fault f = start;
  while (true) {
    // Lexicographic increment with carry, last axis fastest.
    size_t i = axes_.size();
    while (i > 0) {
      --i;
      if (++f[i] < axes_[i].cardinality()) {
        break;
      }
      f[i] = 0;
      if (i == 0) {
        return std::nullopt;  // wrapped past the end
      }
    }
    if (IsValid(f)) {
      return f;
    }
  }
}

void FaultSpace::ForEachInVicinity(const Fault& center, size_t d,
                                   const std::function<bool(const Fault&)>& fn) const {
  assert(center.dimensions() == axes_.size());
  // Depth-first over axes, carrying the remaining distance budget.
  Fault current = center;
  std::function<bool(size_t, size_t)> recurse = [&](size_t axis, size_t budget) -> bool {
    if (axis == axes_.size()) {
      return fn(current);
    }
    const size_t c = axes_[axis].cardinality();
    const size_t center_idx = center[axis];
    // Enumerate offsets within budget: center first, then +/- deltas.
    for (size_t delta = 0; delta <= budget; ++delta) {
      for (int sign : {+1, -1}) {
        if (delta == 0 && sign < 0) {
          continue;
        }
        int64_t v = static_cast<int64_t>(center_idx) + sign * static_cast<int64_t>(delta);
        if (v < 0 || v >= static_cast<int64_t>(c)) {
          continue;
        }
        current[axis] = static_cast<size_t>(v);
        if (!recurse(axis + 1, budget - delta)) {
          return false;
        }
      }
    }
    current[axis] = center_idx;
    return true;
  };
  recurse(0, d);
}

double FaultSpace::RelativeLinearDensity(const Fault& center, size_t k, size_t d,
                                         const std::function<double(const Fault&)>& impact) const {
  assert(k < axes_.size());
  double axis_sum = 0.0;
  size_t axis_count = 0;
  double all_sum = 0.0;
  size_t all_count = 0;
  ForEachInVicinity(center, d, [&](const Fault& f) {
    if (!IsValid(f)) {
      return true;
    }
    double v = impact(f);
    all_sum += v;
    ++all_count;
    bool on_axis_line = true;
    for (size_t i = 0; i < axes_.size(); ++i) {
      if (i != k && f[i] != center[i]) {
        on_axis_line = false;
        break;
      }
    }
    if (on_axis_line) {
      axis_sum += v;
      ++axis_count;
    }
    return true;
  });
  if (all_count == 0 || axis_count == 0) {
    return 1.0;
  }
  double all_avg = all_sum / static_cast<double>(all_count);
  if (all_avg == 0.0) {
    return 1.0;
  }
  double axis_avg = axis_sum / static_cast<double>(axis_count);
  return axis_avg / all_avg;
}

std::string FaultSpace::Describe(const Fault& f) const {
  std::string out;
  for (size_t i = 0; i < axes_.size() && i < f.dimensions(); ++i) {
    if (i > 0) {
      out += " ";
    }
    out += axes_[i].name();
    out += "=";
    out += axes_[i].Label(f[i]);
  }
  return out;
}

FaultSpace MakeCallSpace(std::string name, size_t num_tests,
                         const std::vector<std::string>& functions, size_t max_call,
                         bool include_zero_call) {
  std::vector<Axis> axes;
  axes.push_back(Axis::MakeInterval("test", 1, static_cast<int64_t>(num_tests)));
  axes.push_back(Axis::MakeSet("function", functions));
  axes.push_back(
      Axis::MakeInterval("call", include_zero_call ? 0 : 1, static_cast<int64_t>(max_call)));
  return FaultSpace(std::move(axes), std::move(name));
}

}  // namespace afex
