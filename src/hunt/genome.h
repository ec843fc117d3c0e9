// genome.h -- the hunt candidate representation: an attack schedule as
// a typed move sequence.
//
// An AttackGenome is the unit the search strategies (hunt/strategy.h)
// breed and score. Each move is one of the scenario alphabet's attack
// shapes -- a targeted strike (by rank, degree, or observer-conditioned
// predicate via the attack registry), a batch strike, a churn burst, a
// join burst, a churn ramp, or a weighted mix of single moves -- and
// the genome renders to a canonical scenario spec:
//
//   hunt::Move strike;  // kStrike unless told otherwise
//   strike.attack = "maxdelta";
//   strike.count = 12;
//   const hunt::AttackGenome g({strike});
//   g.spec();          // "strike:maxdeltax12"
//   g.to_scenario();   // api::Scenario::parse(g.spec()), ready for
//                      // Network::play
//
// Genomes are built and edited only as typed values (hunt/mutation.h);
// their text is written, never read back, except by the one phase
// grammar, api::Scenario::parse. Every move carries an explicit count,
// the mutation kit clamps parameters to GenomeLimits (evaluation cost
// stays bounded no matter what it breeds), and open-ended phases
// (targeted, until, repeat, trace) are not part of the alphabet.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/scenario.h"

namespace dash::hunt {

/// Hard caps the mutation kit honours; they bound the cost of
/// evaluating any genome the search can breed.
struct GenomeLimits {
  std::size_t max_moves = 12;    ///< moves per genome
  std::size_t max_count = 2000;  ///< events/deletions/draws per move
  std::size_t max_batch = 64;    ///< batch size
  std::size_t max_attach = 8;    ///< join attachments
  std::uint64_t max_weight = 9;  ///< mix arm weight
};

const GenomeLimits& genome_limits();

/// One typed move. Which fields are live depends on `kind`; spec()
/// renders the canonical phase text (identical to the corresponding
/// api::Scenario phase's canonical form, so a genome spec is already
/// scenario-canonical).
struct Move {
  enum class Kind { kStrike, kBatch, kChurn, kJoin, kRamp, kMix };

  Kind kind = Kind::kStrike;
  /// kStrike: attack registry spec ("maxnode", "rank:3", "adaptive").
  std::string attack = "maxnode";
  /// Repetitions: strike deletions, batch rounds, churn/ramp events,
  /// join arrivals, mix draws. Always >= 1.
  std::size_t count = 1;
  // kBatch:
  std::size_t batch_size = 4;
  std::string batch_mode = "hubs";  ///< "hubs" or "random"
  // kChurn rates; kRamp start rates.
  double join_rate = 0.0;
  double leave_rate = 0.0;
  // kRamp end rates.
  double join_rate_end = 0.0;
  double leave_rate_end = 0.0;
  /// kChurn / kJoin / kRamp: peers each arrival wires to.
  std::size_t attach = 2;
  /// kMix: (weight, arm) pairs; arms are non-mix moves, so nesting
  /// stops at depth one.
  std::vector<std::pair<std::uint64_t, Move>> mix_arms;

  std::string spec() const;
  bool operator==(const Move&) const = default;
};

class AttackGenome {
 public:
  AttackGenome() = default;
  explicit AttackGenome(std::vector<Move> moves)
      : moves_(std::move(moves)) {}

  /// Canonical text form: the moves' specs joined by ';', a valid
  /// canonical api::Scenario spec.
  std::string spec() const;

  /// FNV-1a over spec(): the candidate's identity in caches, spools,
  /// and leaderboards.
  std::uint64_t hash() const;
  std::string hash_hex() const;

  /// The executable form (Scenario::parse of spec()).
  api::Scenario to_scenario() const;

  std::vector<Move>& moves() { return moves_; }
  const std::vector<Move>& moves() const { return moves_; }
  bool empty() const { return moves_.empty(); }
  std::size_t size() const { return moves_.size(); }
  bool operator==(const AttackGenome&) const = default;

 private:
  std::vector<Move> moves_;
};

}  // namespace dash::hunt
