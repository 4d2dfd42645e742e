#include "campaign/export.h"

#include <cstdio>
#include <string>
#include <string_view>

namespace afex {
namespace {

std::string CsvField(std::string_view raw) {
  bool needs_quotes = raw.find_first_of(",\"\r\n") != std::string_view::npos;
  if (!needs_quotes) {
    return std::string(raw);
  }
  std::string out = "\"";
  for (char c : raw) {
    if (c == '"') {
      out += '"';
    }
    out += c;
  }
  out += '"';
  return out;
}

std::string JsonString(std::string_view raw) {
  std::string out = "\"";
  for (unsigned char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
  return out;
}

const char* JsonBool(bool b) { return b ? "true" : "false"; }

std::string JsonIndexArray(const std::vector<size_t>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += std::to_string(values[i]);
  }
  out += ']';
  return out;
}

}  // namespace

void ExportCsv(const FaultSpace& space, const SessionResult& result, std::ostream& out) {
  out << "test,fault,description,impact,fitness,cluster,fault_triggered,"
         "test_failed,crashed,hung,recovery_failed,invariant_violated,exit_code,new_blocks\n";
  for (size_t i = 0; i < result.records.size(); ++i) {
    const SessionRecord& r = result.records[i];
    out << i + 1 << ',' << CsvField(r.fault.ToString()) << ','
        << CsvField(space.Describe(r.fault)) << ',' << FormatDouble(r.impact) << ','
        << FormatDouble(r.fitness) << ',' << r.cluster_id << ',' << int{r.outcome.fault_triggered}
        << ',' << int{r.outcome.test_failed} << ',' << int{r.outcome.crashed} << ','
        << int{r.outcome.hung} << ',' << int{r.outcome.recovery_failed} << ','
        << int{r.outcome.invariant_violated} << ',' << r.outcome.exit_code << ','
        << r.outcome.new_blocks_covered << '\n';
  }
}

void ExportJson(const CampaignMeta& meta, const FaultSpace& space, const SessionResult& result,
                std::ostream& out, const obs::MetricsSnapshot* metrics) {
  out << "{\n";
  out << "  \"format\": " << meta.version << ",\n";
  out << "  \"target\": " << JsonString(meta.target) << ",\n";
  out << "  \"strategy\": " << JsonString(meta.strategy) << ",\n";
  out << "  \"seed\": " << meta.seed << ",\n";
  out << "  \"space\": " << JsonString(space.name()) << ",\n";
  out << "  \"space_fingerprint\": " << JsonString(FingerprintHex(meta.space_fingerprint))
      << ",\n";
  out << "  \"jobs\": " << meta.jobs << ",\n";
  out << "  \"feedback\": " << JsonBool(meta.feedback) << ",\n";
  out << "  \"summary\": {\n";
  out << "    \"tests_executed\": " << result.tests_executed << ",\n";
  out << "    \"failed_tests\": " << result.failed_tests << ",\n";
  out << "    \"crashes\": " << result.crashes << ",\n";
  out << "    \"hangs\": " << result.hangs << ",\n";
  out << "    \"clusters\": " << result.clusters << ",\n";
  out << "    \"unique_failures\": " << result.unique_failures << ",\n";
  out << "    \"unique_crashes\": " << result.unique_crashes << ",\n";
  out << "    \"total_impact\": " << FormatDouble(result.total_impact) << ",\n";
  out << "    \"space_exhausted\": " << JsonBool(result.space_exhausted) << "\n";
  out << "  },\n";
  if (metrics != nullptr) {
    out << "  \"metrics\": ";
    metrics->WriteJson(out, 2);
    out << ",\n";
  }
  out << "  \"records\": [";
  for (size_t i = 0; i < result.records.size(); ++i) {
    const SessionRecord& r = result.records[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"test\": " << i + 1 << ", \"fault\": " << JsonIndexArray(r.fault.indices())
        << ", \"description\": " << JsonString(space.Describe(r.fault))
        << ", \"impact\": " << FormatDouble(r.impact)
        << ", \"fitness\": " << FormatDouble(r.fitness) << ", \"cluster\": " << r.cluster_id
        << ", \"fault_triggered\": " << JsonBool(r.outcome.fault_triggered)
        << ", \"test_failed\": " << JsonBool(r.outcome.test_failed)
        << ", \"crashed\": " << JsonBool(r.outcome.crashed)
        << ", \"hung\": " << JsonBool(r.outcome.hung)
        << ", \"recovery_failed\": " << JsonBool(r.outcome.recovery_failed)
        << ", \"invariant_violated\": " << JsonBool(r.outcome.invariant_violated)
        << ", \"exit_code\": " << r.outcome.exit_code
        << ", \"new_blocks\": " << r.outcome.new_blocks_covered << ", \"injection_stack\": [";
    for (size_t j = 0; j < r.outcome.injection_stack.size(); ++j) {
      if (j > 0) {
        out << ", ";
      }
      out << JsonString(r.outcome.injection_stack[j]);
    }
    out << "], \"detail\": " << JsonString(r.outcome.detail) << "}";
  }
  out << "\n  ]\n}\n";
}

}  // namespace afex
