#include "core/explorer.h"

#include <stdexcept>

#include "core/exhaustive_explorer.h"
#include "core/fitness_explorer.h"
#include "core/random_explorer.h"

namespace afex {

std::unique_ptr<Explorer> MakeExplorer(const std::string& strategy, const FaultSpace& space,
                                       uint64_t seed) {
  if (strategy == "fitness") {
    return std::make_unique<FitnessExplorer>(space, FitnessExplorerConfig{.seed = seed});
  }
  if (strategy == "random") {
    return std::make_unique<RandomExplorer>(space, seed);
  }
  if (strategy == "exhaustive") {
    return std::make_unique<ExhaustiveExplorer>(space);
  }
  throw std::invalid_argument("unknown exploration strategy '" + strategy + "'");
}

}  // namespace afex
