// Explorer interface: a strategy that navigates a fault space (paper §3).
// The exploration session asks for candidate faults to execute and reports
// the measured fitness of each executed test back to the explorer; feedback-
// driven strategies (FitnessExplorer) use the reports, open-loop strategies
// (random, exhaustive) ignore them.
//
// The candidate/report split mirrors the prototype's explorer/node-manager
// protocol (paper §6): candidates can be outstanding in parallel on many
// node managers before any result is reported.
#ifndef AFEX_CORE_EXPLORER_H_
#define AFEX_CORE_EXPLORER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/fault.h"
#include "core/fault_space.h"

namespace afex {

class Explorer {
 public:
  virtual ~Explorer() = default;

  // The space being explored.
  virtual const FaultSpace& space() const = 0;

  // Next fault to execute, or nullopt when the strategy has exhausted the
  // space (or, for exhaustive search, reached its end). An explorer never
  // returns the same fault twice.
  virtual std::optional<Fault> NextCandidate() = 0;

  // Reports the measured fitness of an executed candidate. `fitness` is the
  // impact, possibly already weighted by the session's quality feedback
  // (paper §7.4). Must be called at most once per issued candidate.
  virtual void ReportResult(const Fault& fault, double fitness) = 0;

  // Number of candidates issued so far.
  virtual size_t issued_count() const = 0;
};

// The explorer for `strategy` ("fitness", "random" or "exhaustive") over
// `space`, seeded with `seed`; throws std::invalid_argument for any other name.
std::unique_ptr<Explorer> MakeExplorer(const std::string& strategy, const FaultSpace& space,
                                       uint64_t seed);

}  // namespace afex

#endif  // AFEX_CORE_EXPLORER_H_
