#include "injection/plan.h"

#include <charconv>
#include <stdexcept>

#include "util/strings.h"

namespace afex {

FaultDecoder::FaultDecoder(const FaultSpace& space) {
  roles_.test = space.AxisIndexByName("test");
  if (!roles_.test.has_value()) {
    throw std::invalid_argument("fault space has no 'test' axis: " + space.name());
  }
  const Axis& test_axis = space.axis(*roles_.test);
  test_id_by_value_.reserve(test_axis.cardinality());
  for (size_t v = 0; v < test_axis.cardinality(); ++v) {
    uint64_t label = 0;
    if (!ParseUint(test_axis.Label(v), label) || label == 0) {
      throw std::invalid_argument("unparsable test label in space " + space.name());
    }
    test_id_by_value_.push_back(static_cast<size_t>(label - 1));  // labels are 1-based
  }

  roles_.function = space.AxisIndexByName("function");
  roles_.call = space.AxisIndexByName("call");
  if (!roles_.function.has_value() || !roles_.call.has_value()) {
    return;  // a test-only space: no injection
  }

  const Axis& call_axis = space.axis(*roles_.call);
  call_by_value_.reserve(call_axis.cardinality());
  for (size_t v = 0; v < call_axis.cardinality(); ++v) {
    uint64_t call_number = 0;
    if (!ParseUint(call_axis.Label(v), call_number)) {
      throw std::invalid_argument("unparsable call label in space " + space.name());
    }
    call_by_value_.push_back(call_number);
  }

  const Axis& func_axis = space.axis(*roles_.function);
  spec_by_function_.reserve(func_axis.cardinality());
  for (size_t v = 0; v < func_axis.cardinality(); ++v) {
    std::string label = func_axis.Label(v);
    std::optional<LibcFn> function = FindLibcFn(label);
    if (!function.has_value()) {
      throw std::invalid_argument("unknown function label '" + label + "'");
    }
    const LibcTableRow& row = LibcRow(*function);
    spec_by_function_.push_back(
        {.function = *function, .retval = row.error_retval, .errno_value = row.default_errno});
  }

  roles_.errno_axis = space.AxisIndexByName("errno");
  if (roles_.errno_axis.has_value()) {
    const Axis& errno_axis = space.axis(*roles_.errno_axis);
    for (size_t v = 0; v < errno_axis.cardinality(); ++v) {
      std::string label = errno_axis.Label(v);
      auto value = sim_errno::ValueFromName(label);
      if (!value.has_value()) {
        throw std::invalid_argument("unknown errno label '" + label + "'");
      }
      errno_by_value_.push_back(*value);
    }
  }
  roles_.retval = space.AxisIndexByName("retval");
  if (roles_.retval.has_value()) {
    const Axis& retval_axis = space.axis(*roles_.retval);
    for (size_t v = 0; v < retval_axis.cardinality(); ++v) {
      const std::string label = retval_axis.Label(v);
      int64_t retval = 0;
      const char* end = label.data() + label.size();
      const auto [stop, error] = std::from_chars(label.data(), end, retval);
      if (error != std::errc() || stop != end) {
        throw std::invalid_argument("unparsable retval label '" + label + "'");
      }
      retval_by_value_.push_back(retval);
    }
  }
  roles_.mode = space.AxisIndexByName("mode");
  if (roles_.mode.has_value()) {
    const Axis& mode_axis = space.axis(*roles_.mode);
    for (size_t v = 0; v < mode_axis.cardinality(); ++v) {
      std::string label = mode_axis.Label(v);
      auto kind = FaultKindFromName(label);
      if (!kind.has_value()) {
        throw std::invalid_argument("unknown mode label '" + label + "'");
      }
      kind_by_value_.push_back(*kind);
    }
  }
}

InjectionPlan FaultDecoder::Decode(const Fault& fault) const {
  InjectionPlan plan;
  plan.test_id = test_id_by_value_[fault[*roles_.test]];
  if (!roles_.function.has_value() || !roles_.call.has_value()) {
    return plan;
  }
  uint64_t call_number = call_by_value_[fault[*roles_.call]];
  if (call_number == 0) {
    return plan;  // call 0 = the no-injection point (Phi_coreutils convention)
  }
  FaultSpec spec = spec_by_function_[fault[*roles_.function]];
  spec.call_lo = static_cast<int>(call_number);
  spec.call_hi = static_cast<int>(call_number);
  if (roles_.errno_axis.has_value()) {
    spec.errno_value = errno_by_value_[fault[*roles_.errno_axis]];
  }
  if (roles_.retval.has_value()) {
    spec.retval = retval_by_value_[fault[*roles_.retval]];
  }
  if (roles_.mode.has_value()) {
    spec.kind = kind_by_value_[fault[*roles_.mode]];
  }
  if (spec.kind == FaultKind::kShortWrite) {
    // The short write returns the count it performed, so the retval axis
    // doubles as K (negative profiled defaults clamp to a 0-byte write).
    spec.param = spec.retval >= 0 ? spec.retval : 0;
    spec.retval = spec.param;
    spec.errno_value = 0;  // a short write is not an error return
  }
  plan.spec = std::move(spec);
  return plan;
}

bool CachedFaultDecoder::Matches(const FaultSpace& space) const {
  if (space_ != &space || space_name_ != space.name() || axes_.size() != space.dimensions()) {
    return false;
  }
  for (size_t i = 0; i < axes_.size(); ++i) {
    const Axis& cached = axes_[i];
    const Axis& axis = space.axis(i);
    if (cached.name() != axis.name() || cached.kind() != axis.kind() ||
        cached.lo() != axis.lo() || cached.hi() != axis.hi() ||
        cached.labels() != axis.labels()) {
      return false;
    }
  }
  return true;
}

InjectionPlan CachedFaultDecoder::Decode(const FaultSpace& space, const Fault& fault) {
  if (!Matches(space)) {
    decoder_.emplace(space);
    space_ = &space;
    space_name_ = space.name();
    axes_.assign(space.axes().begin(), space.axes().end());
  }
  return decoder_->Decode(fault);
}

std::string FormatPlan(const InjectionPlan& plan) {
  std::string out = "test " + std::to_string(plan.test_id + 1);
  if (!plan.spec.has_value()) {
    return out + " (no injection)";
  }
  out += " function ";
  out += LibcRow(plan.spec->function).name;
  out += " errno " + sim_errno::Name(plan.spec->errno_value);
  out += " retval " + std::to_string(plan.spec->retval);
  out += " callNumber " + std::to_string(plan.spec->call_lo);
  if (plan.spec->call_hi != plan.spec->call_lo) {
    out += "-" + std::to_string(plan.spec->call_hi);
  }
  if (plan.spec->kind != FaultKind::kErrno) {
    out += " mode ";
    out += FaultKindName(plan.spec->kind);
    if (plan.spec->kind == FaultKind::kShortWrite) {
      out += " K " + std::to_string(plan.spec->param);
    }
  }
  return out;
}

}  // namespace afex
