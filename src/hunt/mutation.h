// mutation.h -- the hunt's genome operators.
//
// random_move / random_genome / mutate_genome / crossover edit
// hunt::AttackGenome values as typed moves, mix arms included. Every
// operator keeps the result within GenomeLimits, and every result
// renders to a canonical api::Scenario spec. The greedy and
// evolutionary search strategies are built on these.
//
// All operators draw every coin from the caller's Rng: one seed, one
// deterministic edit sequence.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "hunt/genome.h"
#include "util/rng.h"

namespace dash::hunt {

/// Attack specs hunted strike moves draw from (a concrete sample of
/// the registry: degree ranks, randomized, delta-guided, and the
/// observer-conditioned adaptive family).
const std::vector<std::string>& strike_alphabet();

/// One random move with parameters from small bounded grids.
/// `allow_mix` gates kMix (mix arms are themselves random moves, so
/// recursion stops at depth one).
Move random_move(util::Rng& rng, bool allow_mix = true);

/// 1..max_moves random moves.
AttackGenome random_genome(util::Rng& rng, std::size_t max_moves = 6);

/// One edit: replace / insert / delete / swap-adjacent / duplicate a
/// move, or perturb one move's parameters in place.
void mutate_genome(AttackGenome& genome, util::Rng& rng);

/// One-point crossover at move boundaries: a prefix of `a` spliced to
/// a suffix of `b`, clamped to GenomeLimits::max_moves.
AttackGenome crossover(const AttackGenome& a, const AttackGenome& b,
                       util::Rng& rng);

}  // namespace dash::hunt
