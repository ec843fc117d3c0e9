// strategy.h -- search strategies over the attack-genome space.
//
// A strategy drives an Evaluator until its budget is spent, drawing
// every coin from one caller-owned Rng: same seed, same budget, same
// evaluator identity => the same sequence of candidates, hence the same
// leaderboard, byte for byte, no matter how the evaluator schedules the
// replays (sequential or on a ThreadPool).
//
// Strategies live behind the same util::Registry machinery as healers,
// attacks and scenario phases: "random", "greedy[:<neighbors>]",
// "evolve[:<population>]".
#pragma once

#include <memory>
#include <string>

#include "hunt/evaluator.h"
#include "util/registry.h"
#include "util/rng.h"

namespace dash::hunt {

class SearchStrategy {
 public:
  virtual ~SearchStrategy() = default;
  virtual std::string name() const = 0;
  /// Search until eval.exhausted(). Deterministic in rng's stream.
  virtual void run(Evaluator& eval, util::Rng& rng) = 0;
};

/// "random" -- fresh random genomes, the baseline every hunt must beat.
/// "greedy[:<neighbors>]" -- hill-climb over the single-edit
///   neighborhood (mutate_genome), default 8 neighbors per step, random
///   restart when no neighbor improves.
/// "evolve[:<population>]" -- evolutionary loop: elitism of 2,
///   tournament-2 selection, one-point crossover at move boundaries,
///   mutation on every child; default population 16.
util::Registry<SearchStrategy>& strategy_registry();

/// strategy_registry().create(spec) -- throws std::invalid_argument for
/// unknown names and out-of-range parameters.
std::unique_ptr<SearchStrategy> make_search_strategy(
    const std::string& spec);

}  // namespace dash::hunt
