// Stable text serialization for the campaign store (the durable layer the
// paper's long-running cluster campaigns assume, §6). Every value
// round-trips exactly: doubles are rendered with max_digits10 precision,
// strings are percent-escaped so a serialized record is always one
// whitespace-free-field, single-line entry, and string lists are
// count-prefixed so empty items survive. The format is versioned via the
// journal header (kCampaignFormatVersion); readers reject newer versions.
#ifndef AFEX_CAMPAIGN_SERDE_H_
#define AFEX_CAMPAIGN_SERDE_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/fault_space.h"
#include "core/session.h"

namespace afex {

// Raised by the campaign layer on unreadable journals, malformed records,
// and resume/config mismatches.
class CampaignError : public std::runtime_error {
 public:
  explicit CampaignError(const std::string& what) : std::runtime_error(what) {}
};

// Bumped on any incompatible change to the serialized forms below.
// History: v1 — initial format; v2 — adds the `analysis=` meta field
// (static target-profile fingerprint). v1 journals still parse (the field
// defaults to 0 = "no analysis recorded"). v3 — adds the `recfail=` /
// `inv=` outcome fields (two-phase crash-recovery facets). v1/v2 journals
// still parse (both facets default to false). v4 — adds the optional
// `recipe=` meta field (the campaign's canonical flags, a string list; see
// campaign/recipe.h); older journals parse without it.
inline constexpr int kCampaignFormatVersion = 4;

// Identity of a campaign: everything that must match for a journal to be
// resumable — the same target, strategy, seed, fault space, execution
// width, and feedback setting reproduce the same deterministic run.
struct CampaignMeta {
  int version = kCampaignFormatVersion;
  std::string target;
  std::string strategy;
  uint64_t seed = 1;
  uint64_t space_fingerprint = 0;
  // Session nodes executing the campaign (1 = serial). Round-batched
  // execution is only deterministic for a fixed node count, so jobs is part
  // of the campaign identity.
  size_t jobs = 1;
  // Online redundancy feedback (paper §7.4) alters the fitness stream fed
  // to the explorer, so it too is part of the identity.
  bool feedback = false;
  // Fingerprint of the warm-start knowledge seeded into the explorer
  // before the first candidate (0 = cold start). A warm-started explorer
  // issues a different candidate sequence, so resuming must re-apply the
  // exact same seeds — see WarmStartFingerprint in store.h.
  uint64_t warm_fingerprint = 0;
  // Fingerprint of the static target profile (analysis layer) the campaign
  // was set up against; 0 = no analysis ran. A real-backend journal is
  // only resumable against a binary whose import/callsite profile is
  // unchanged — a rebuilt target with a different libc boundary would
  // replay faults it can no longer (or differently) experience. Serialized
  // from format v2 on; absent (and 0) in v1 journals.
  uint64_t analysis_fingerprint = 0;
  // The campaign's canonical flags (Recipe::ToArgs; empty = none
  // recorded), so a resume can rebuild the campaign from the journal
  // alone. Serialized from format v4 on, and only when non-empty.
  std::vector<std::string> recipe;
};

// Percent-escaping: bytes outside printable ASCII plus the format's
// delimiters ('%', '|', '=', ':', ',' and space) become %XX. The escaped
// form never contains whitespace.
std::string EscapeField(std::string_view raw);
bool UnescapeField(std::string_view field, std::string& out);

// Doubles with an exact decimal round trip (printf %.17g).
std::string FormatDouble(double v);
bool ParseDoubleField(std::string_view s, double& out);

// Fault <2,5,1> <-> "2,5,1"; the zero-dimension fault is "-".
std::string SerializeFault(const Fault& fault);
bool ParseFault(std::string_view s, Fault& out);

// TestOutcome / SessionRecord / CampaignMeta <-> one line of space-
// separated key=value fields. All parsers are strict: unknown keys,
// missing keys, and malformed values fail.
std::string SerializeOutcome(const TestOutcome& outcome);
bool ParseOutcome(std::string_view s, TestOutcome& out);

std::string SerializeRecord(const SessionRecord& record);
bool ParseRecord(std::string_view s, SessionRecord& out);

// A failed ParseMeta leaves the fields read before the offending one in
// `out`: SerializeMeta writes `v=` first, so a reader can still tell a
// newer format (whose extra fields this build rejects) from a corrupt one.
std::string SerializeMeta(const CampaignMeta& meta);
bool ParseMeta(std::string_view s, CampaignMeta& out);

// Stable fingerprint of a fault space's structure: name, axis order, axis
// names/kinds, label sets and interval bounds (FNV-1a over a canonical
// rendering). Validity predicates are not hashable and are assumed to be a
// function of the identity captured here. Campaigns refuse to resume onto
// a space with a different fingerprint.
uint64_t FaultSpaceFingerprint(const FaultSpace& space);

// 16-digit lowercase hex rendering of a fingerprint (for headers and
// error messages).
std::string FingerprintHex(uint64_t fingerprint);

}  // namespace afex

#endif  // AFEX_CAMPAIGN_SERDE_H_
