#include "campaign/serde.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "util/fnv1a.h"
#include "util/strings.h"

namespace afex {
namespace {

bool IsPlainByte(unsigned char c) {
  if (c <= 0x20 || c >= 0x7f) {
    return false;  // whitespace, control bytes, non-ASCII
  }
  switch (c) {
    case '%':
    case '|':
    case '=':
    case ':':
    case ',':
      return false;
    default:
      return true;
  }
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  if (c >= 'A' && c <= 'F') {
    return c - 'A' + 10;
  }
  return -1;
}

bool ParseInt64(std::string_view s, int64_t& out) {
  bool negative = !s.empty() && s.front() == '-';
  uint64_t magnitude = 0;
  if (!ParseUint(negative ? s.substr(1) : s, magnitude)) {
    return false;
  }
  if (negative) {
    if (magnitude > 1ULL + static_cast<uint64_t>(INT64_MAX)) {
      return false;
    }
    out = static_cast<int64_t>(0ULL - magnitude);
  } else {
    if (magnitude > static_cast<uint64_t>(INT64_MAX)) {
      return false;
    }
    out = static_cast<int64_t>(magnitude);
  }
  return true;
}

bool ParseHex16(std::string_view s, uint64_t& out) {
  if (s.size() != 16) {
    return false;
  }
  uint64_t value = 0;
  for (char c : s) {
    int digit = HexValue(c);
    if (digit < 0) {
      return false;
    }
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  out = value;
  return true;
}

bool ParseBool(std::string_view s, bool& out) {
  if (s == "0") {
    out = false;
    return true;
  }
  if (s == "1") {
    out = true;
    return true;
  }
  return false;
}

// String lists are count-prefixed ("2:a|b", "1:", "0:") so that empty
// lists, single empty items, and items containing the separator (escaped)
// all stay distinguishable.
std::string SerializeStringList(const std::vector<std::string>& items) {
  std::string out = std::to_string(items.size()) + ":";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) {
      out += '|';
    }
    out += EscapeField(items[i]);
  }
  return out;
}

bool ParseStringList(std::string_view s, std::vector<std::string>& out) {
  size_t colon = s.find(':');
  if (colon == std::string_view::npos) {
    return false;
  }
  uint64_t count = 0;
  if (!ParseUint(s.substr(0, colon), count)) {
    return false;
  }
  std::string_view body = s.substr(colon + 1);
  out.clear();
  if (count == 0) {
    return body.empty();
  }
  std::vector<std::string> parts = Split(body, '|');
  if (parts.size() != count) {
    return false;
  }
  out.reserve(parts.size());
  for (const std::string& part : parts) {
    std::string item;
    if (!UnescapeField(part, item)) {
      return false;
    }
    out.push_back(std::move(item));
  }
  return true;
}

std::string SerializeBlockIds(const std::vector<uint32_t>& ids) {
  std::string out = std::to_string(ids.size()) + ":";
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) {
      out += '|';
    }
    out += std::to_string(ids[i]);
  }
  return out;
}

bool ParseBlockIds(std::string_view s, std::vector<uint32_t>& out) {
  size_t colon = s.find(':');
  if (colon == std::string_view::npos) {
    return false;
  }
  uint64_t count = 0;
  if (!ParseUint(s.substr(0, colon), count)) {
    return false;
  }
  std::string_view body = s.substr(colon + 1);
  out.clear();
  if (count == 0) {
    return body.empty();
  }
  std::vector<std::string> parts = Split(body, '|');
  if (parts.size() != count) {
    return false;
  }
  out.reserve(parts.size());
  for (const std::string& part : parts) {
    uint64_t id = 0;
    if (!ParseUint(part, id) || id > UINT32_MAX) {
      return false;
    }
    out.push_back(static_cast<uint32_t>(id));
  }
  return true;
}

// Splits a serialized line into key=value fields. Returns false on a field
// without '='.
bool SplitFields(std::string_view line,
                 std::vector<std::pair<std::string_view, std::string_view>>& out) {
  out.clear();
  size_t start = 0;
  while (start <= line.size()) {
    size_t end = line.find(' ', start);
    if (end == std::string_view::npos) {
      end = line.size();
    }
    std::string_view field = line.substr(start, end - start);
    if (!field.empty()) {
      size_t eq = field.find('=');
      if (eq == std::string_view::npos) {
        return false;
      }
      out.emplace_back(field.substr(0, eq), field.substr(eq + 1));
    }
    if (end == line.size()) {
      break;
    }
    start = end + 1;
  }
  return true;
}

enum class FieldStatus { kHandled, kUnknown, kMalformed };

FieldStatus ApplyOutcomeField(std::string_view key, std::string_view value, TestOutcome& out,
                              uint32_t& seen) {
  auto mark = [&seen](uint32_t bit, bool ok) {
    if (ok) {
      seen |= bit;
    }
    return ok ? FieldStatus::kHandled : FieldStatus::kMalformed;
  };
  if (key == "failed") {
    return mark(1u << 0, ParseBool(value, out.test_failed));
  }
  if (key == "crashed") {
    return mark(1u << 1, ParseBool(value, out.crashed));
  }
  if (key == "hung") {
    return mark(1u << 2, ParseBool(value, out.hung));
  }
  if (key == "exit") {
    int64_t code = 0;
    if (!ParseInt64(value, code) || code < INT32_MIN || code > INT32_MAX) {
      return FieldStatus::kMalformed;
    }
    out.exit_code = static_cast<int>(code);
    seen |= 1u << 3;
    return FieldStatus::kHandled;
  }
  if (key == "newblk") {
    uint64_t n = 0;
    if (!ParseUint(value, n)) {
      return FieldStatus::kMalformed;
    }
    out.new_blocks_covered = static_cast<size_t>(n);
    seen |= 1u << 4;
    return FieldStatus::kHandled;
  }
  if (key == "blocks") {
    return mark(1u << 5, ParseBlockIds(value, out.new_block_ids));
  }
  if (key == "trig") {
    return mark(1u << 6, ParseBool(value, out.fault_triggered));
  }
  if (key == "stack") {
    return mark(1u << 7, ParseStringList(value, out.injection_stack));
  }
  if (key == "detail") {
    return mark(1u << 8, UnescapeField(value, out.detail));
  }
  // Crash-recovery facets, serialized from format v3 on. Optional on parse
  // (record lines carry no version; pre-v3 journals simply lack them and
  // both facets default to false), so the bits land above the required
  // mask.
  if (key == "recfail") {
    return mark(1u << 9, ParseBool(value, out.recovery_failed));
  }
  if (key == "inv") {
    return mark(1u << 10, ParseBool(value, out.invariant_violated));
  }
  return FieldStatus::kUnknown;
}

// The nine v1 fields every outcome line must carry; recfail/inv are
// accepted but not required (see above).
constexpr uint32_t kRequiredOutcomeFields = (1u << 9) - 1;

}  // namespace

std::string EscapeField(std::string_view raw) {
  static const char* kHex = "0123456789ABCDEF";
  std::string out;
  out.reserve(raw.size());
  for (unsigned char c : raw) {
    if (IsPlainByte(c)) {
      out += static_cast<char>(c);
    } else {
      out += '%';
      out += kHex[c >> 4];
      out += kHex[c & 0xf];
    }
  }
  return out;
}

bool UnescapeField(std::string_view field, std::string& out) {
  out.clear();
  out.reserve(field.size());
  for (size_t i = 0; i < field.size(); ++i) {
    char c = field[i];
    if (c != '%') {
      out += c;
      continue;
    }
    if (i + 2 >= field.size()) {
      return false;
    }
    int hi = HexValue(field[i + 1]);
    int lo = HexValue(field[i + 2]);
    if (hi < 0 || lo < 0) {
      return false;
    }
    out += static_cast<char>((hi << 4) | lo);
    i += 2;
  }
  return true;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool ParseDoubleField(std::string_view s, double& out) {
  if (s.empty() || s.size() >= 63) {
    return false;
  }
  char buf[64];
  s.copy(buf, s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  out = std::strtod(buf, &end);
  return end == buf + s.size();
}

std::string SerializeFault(const Fault& fault) {
  if (fault.dimensions() == 0) {
    return "-";
  }
  std::string out;
  for (size_t i = 0; i < fault.dimensions(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += std::to_string(fault[i]);
  }
  return out;
}

bool ParseFault(std::string_view s, Fault& out) {
  if (s == "-") {
    out = Fault();
    return true;
  }
  out = Fault();
  for (const std::string& part : Split(s, ',')) {
    uint64_t v = 0;
    if (!ParseUint(part, v)) {
      return false;
    }
    out.Append(static_cast<size_t>(v));
  }
  return true;
}

std::string SerializeOutcome(const TestOutcome& outcome) {
  std::string out;
  out += "failed=" + std::string(outcome.test_failed ? "1" : "0");
  out += " crashed=" + std::string(outcome.crashed ? "1" : "0");
  out += " hung=" + std::string(outcome.hung ? "1" : "0");
  out += " exit=" + std::to_string(outcome.exit_code);
  out += " newblk=" + std::to_string(outcome.new_blocks_covered);
  out += " blocks=" + SerializeBlockIds(outcome.new_block_ids);
  out += " trig=" + std::string(outcome.fault_triggered ? "1" : "0");
  out += " stack=" + SerializeStringList(outcome.injection_stack);
  out += " recfail=" + std::string(outcome.recovery_failed ? "1" : "0");
  out += " inv=" + std::string(outcome.invariant_violated ? "1" : "0");
  out += " detail=" + EscapeField(outcome.detail);
  return out;
}

bool ParseOutcome(std::string_view s, TestOutcome& out) {
  std::vector<std::pair<std::string_view, std::string_view>> fields;
  if (!SplitFields(s, fields)) {
    return false;
  }
  out = TestOutcome{};
  uint32_t seen = 0;
  for (const auto& [key, value] : fields) {
    if (ApplyOutcomeField(key, value, out, seen) != FieldStatus::kHandled) {
      return false;
    }
  }
  return (seen & kRequiredOutcomeFields) == kRequiredOutcomeFields;
}

std::string SerializeRecord(const SessionRecord& record) {
  std::string out;
  out += "f=" + SerializeFault(record.fault);
  out += " impact=" + FormatDouble(record.impact);
  out += " fitness=" + FormatDouble(record.fitness);
  out += " cluster=" + std::to_string(record.cluster_id);
  out += " " + SerializeOutcome(record.outcome);
  return out;
}

bool ParseRecord(std::string_view s, SessionRecord& out) {
  std::vector<std::pair<std::string_view, std::string_view>> fields;
  if (!SplitFields(s, fields)) {
    return false;
  }
  out = SessionRecord{};
  uint32_t outcome_seen = 0;
  uint32_t record_seen = 0;
  for (const auto& [key, value] : fields) {
    FieldStatus status = ApplyOutcomeField(key, value, out.outcome, outcome_seen);
    if (status == FieldStatus::kHandled) {
      continue;
    }
    if (status == FieldStatus::kMalformed) {
      return false;
    }
    if (key == "f") {
      if (!ParseFault(value, out.fault)) {
        return false;
      }
      record_seen |= 1u << 0;
    } else if (key == "impact") {
      if (!ParseDoubleField(value, out.impact)) {
        return false;
      }
      record_seen |= 1u << 1;
    } else if (key == "fitness") {
      if (!ParseDoubleField(value, out.fitness)) {
        return false;
      }
      record_seen |= 1u << 2;
    } else if (key == "cluster") {
      uint64_t id = 0;
      if (!ParseUint(value, id)) {
        return false;
      }
      out.cluster_id = static_cast<size_t>(id);
      record_seen |= 1u << 3;
    } else {
      return false;
    }
  }
  return record_seen == (1u << 4) - 1 &&
         (outcome_seen & kRequiredOutcomeFields) == kRequiredOutcomeFields;
}

std::string FingerprintHex(uint64_t fingerprint) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, fingerprint);
  return buf;
}

std::string SerializeMeta(const CampaignMeta& meta) {
  std::string out;
  out += "v=" + std::to_string(meta.version);
  out += " target=" + EscapeField(meta.target);
  out += " strategy=" + EscapeField(meta.strategy);
  out += " seed=" + std::to_string(meta.seed);
  out += " space=" + FingerprintHex(meta.space_fingerprint);
  out += " jobs=" + std::to_string(meta.jobs);
  out += " feedback=" + std::string(meta.feedback ? "1" : "0");
  out += " warm=" + FingerprintHex(meta.warm_fingerprint);
  if (meta.version >= 2) {
    out += " analysis=" + FingerprintHex(meta.analysis_fingerprint);
  }
  if (meta.version >= 4 && !meta.recipe.empty()) {
    out += " recipe=" + SerializeStringList(meta.recipe);
  }
  return out;
}

bool ParseMeta(std::string_view s, CampaignMeta& out) {
  std::vector<std::pair<std::string_view, std::string_view>> fields;
  if (!SplitFields(s, fields)) {
    return false;
  }
  out = CampaignMeta{};
  uint32_t seen = 0;
  for (const auto& [key, value] : fields) {
    if (key == "v") {
      int64_t v = 0;
      if (!ParseInt64(value, v) || v <= 0 || v > INT32_MAX) {
        return false;
      }
      out.version = static_cast<int>(v);
      seen |= 1u << 0;
    } else if (key == "target") {
      if (!UnescapeField(value, out.target)) {
        return false;
      }
      seen |= 1u << 1;
    } else if (key == "strategy") {
      if (!UnescapeField(value, out.strategy)) {
        return false;
      }
      seen |= 1u << 2;
    } else if (key == "seed") {
      if (!ParseUint(value, out.seed)) {
        return false;
      }
      seen |= 1u << 3;
    } else if (key == "space") {
      if (!ParseHex16(value, out.space_fingerprint)) {
        return false;
      }
      seen |= 1u << 4;
    } else if (key == "jobs") {
      uint64_t jobs = 0;
      if (!ParseUint(value, jobs) || jobs == 0) {
        return false;
      }
      out.jobs = static_cast<size_t>(jobs);
      seen |= 1u << 5;
    } else if (key == "feedback") {
      if (!ParseBool(value, out.feedback)) {
        return false;
      }
      seen |= 1u << 6;
    } else if (key == "warm") {
      if (!ParseHex16(value, out.warm_fingerprint)) {
        return false;
      }
      seen |= 1u << 7;
    } else if (key == "analysis") {
      if (!ParseHex16(value, out.analysis_fingerprint)) {
        return false;
      }
      seen |= 1u << 8;
    } else if (key == "recipe") {
      if (!ParseStringList(value, out.recipe)) {
        return false;
      }
      seen |= 1u << 9;
    } else {
      return false;
    }
  }
  // `analysis=` exists exactly from v2 on: a v1 line carrying it, or a v2
  // line missing it, is malformed — strictness keeps hand-edited journals
  // detectable. `recipe=` is optional, and only from v4 on.
  const uint32_t recipe_bit = 1u << 9;
  uint32_t required = out.version >= 2 ? (1u << 9) - 1 : (1u << 8) - 1;
  return (seen & ~recipe_bit) == required && (out.version >= 4 || (seen & recipe_bit) == 0);
}

uint64_t FaultSpaceFingerprint(const FaultSpace& space) {
  Fnv1aHasher hasher;
  hasher.Mix(space.name());
  for (const Axis& axis : space.axes()) {
    switch (axis.kind()) {
      case AxisKind::kSet:
        hasher.Mix("set");
        break;
      case AxisKind::kInterval:
        hasher.Mix("interval");
        break;
      case AxisKind::kSubInterval:
        hasher.Mix("subinterval");
        break;
    }
    hasher.Mix(axis.name());
    if (axis.kind() == AxisKind::kSet) {
      for (const std::string& label : axis.labels()) {
        hasher.Mix(label);
      }
    } else {
      hasher.Mix(std::to_string(axis.lo()));
      hasher.Mix(std::to_string(axis.hi()));
    }
  }
  return hasher.value();
}

}  // namespace afex
