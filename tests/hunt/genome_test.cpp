// genome_test.cpp -- hunt::AttackGenome: typed moves render to
// canonical scenario specs (api::Scenario::parse(spec()).spec() ==
// spec() for one hand-built genome per move kind and for everything
// the mutation kit yields), every bred genome stays within
// GenomeLimits, and the mutation kit is seed-deterministic.
#include "hunt/genome.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/scenario.h"
#include "hunt/mutation.h"
#include "util/rng.h"

namespace dash::hunt {
namespace {

Move move_of(Move::Kind kind, std::size_t count) {
  Move m;
  m.kind = kind;
  m.count = count;
  return m;
}

Move strike(const std::string& attack, std::size_t count) {
  Move m = move_of(Move::Kind::kStrike, count);
  m.attack = attack;
  return m;
}

Move batch(std::size_t size, const std::string& mode, std::size_t count) {
  Move m = move_of(Move::Kind::kBatch, count);
  m.batch_size = size;
  m.batch_mode = mode;
  return m;
}

Move churn(double join, double leave, std::size_t attach,
           std::size_t count) {
  Move m = move_of(Move::Kind::kChurn, count);
  m.join_rate = join;
  m.leave_rate = leave;
  m.attach = attach;
  return m;
}

Move join(std::size_t attach, std::size_t count) {
  Move m = move_of(Move::Kind::kJoin, count);
  m.attach = attach;
  return m;
}

Move ramp(double j0, double l0, double j1, double l1, std::size_t attach,
          std::size_t count) {
  Move m = churn(j0, l0, attach, count);
  m.kind = Move::Kind::kRamp;
  m.join_rate_end = j1;
  m.leave_rate_end = l1;
  return m;
}

Move mix(std::vector<std::pair<std::uint64_t, Move>> arms,
         std::size_t count) {
  Move m = move_of(Move::Kind::kMix, count);
  m.mix_arms = std::move(arms);
  return m;
}

void expect_move_within_limits(const Move& m, bool arm) {
  const GenomeLimits& limits = genome_limits();
  EXPECT_GE(m.count, 1u) << m.spec();
  EXPECT_LE(m.count, limits.max_count) << m.spec();
  switch (m.kind) {
    case Move::Kind::kStrike:
      EXPECT_FALSE(m.attack.empty()) << m.spec();
      break;
    case Move::Kind::kBatch:
      EXPECT_GE(m.batch_size, 1u) << m.spec();
      EXPECT_LE(m.batch_size, limits.max_batch) << m.spec();
      EXPECT_TRUE(m.batch_mode == "hubs" || m.batch_mode == "random")
          << m.spec();
      break;
    case Move::Kind::kRamp:
      EXPECT_GE(m.join_rate_end, 0.0) << m.spec();
      EXPECT_LE(m.join_rate_end, 1.0) << m.spec();
      EXPECT_GE(m.leave_rate_end, 0.0) << m.spec();
      EXPECT_LE(m.leave_rate_end, 1.0) << m.spec();
      [[fallthrough]];
    case Move::Kind::kChurn:
      EXPECT_GE(m.join_rate, 0.0) << m.spec();
      EXPECT_LE(m.join_rate, 1.0) << m.spec();
      EXPECT_GE(m.leave_rate, 0.0) << m.spec();
      EXPECT_LE(m.leave_rate, 1.0) << m.spec();
      [[fallthrough]];
    case Move::Kind::kJoin:
      EXPECT_GE(m.attach, 1u) << m.spec();
      EXPECT_LE(m.attach, limits.max_attach) << m.spec();
      break;
    case Move::Kind::kMix:
      // Arms are single non-mix moves: nesting stops at depth one.
      EXPECT_FALSE(arm) << m.spec();
      EXPECT_GE(m.mix_arms.size(), 1u) << m.spec();
      EXPECT_LE(m.mix_arms.size(), 4u) << m.spec();
      for (const auto& [weight, inner] : m.mix_arms) {
        EXPECT_GE(weight, 1u) << m.spec();
        EXPECT_LE(weight, limits.max_weight) << m.spec();
        expect_move_within_limits(inner, /*arm=*/true);
      }
      break;
  }
}

/// The contract every genome the hunt scores must meet: within
/// GenomeLimits, and its text a fixed point of the scenario grammar.
void expect_valid(const AttackGenome& g) {
  EXPECT_GE(g.size(), 1u);
  EXPECT_LE(g.size(), genome_limits().max_moves);
  for (const Move& m : g.moves()) expect_move_within_limits(m, false);
  EXPECT_EQ(api::Scenario::parse(g.spec()).spec(), g.spec());
}

// ---- rendering ----------------------------------------------------------

TEST(GenomeParse, CanonicalSpecIsAFixedPoint) {
  const AttackGenome g({
      strike("maxdelta", 12),
      churn(0.3, 0.1, 2, 50),
      batch(8, "hubs", 3),
      join(4, 15),
      ramp(0, 0.5, 1, 0, 2, 10),
      mix({{2, strike("rank:2", 1)}, {1, join(2, 3)}}, 5),
  });
  const std::string spec =
      "strike:maxdeltax12;churn:0.3,0.1x50;batch:8,hubsx3;join:4x15;"
      "ramp:0,0.5,1,0x10;mix:2{strike:rank:2x1},1{join:2x3}x5";
  EXPECT_EQ(g.size(), 6u);
  EXPECT_EQ(g.spec(), spec);
  expect_valid(g);
}

TEST(GenomeParse, NonDefaultAttachIsPreserved) {
  EXPECT_EQ(churn(0.5, 0.5, 3, 7).spec(), "churn:0.5,0.5,3x7");
  EXPECT_EQ(churn(0.5, 0.5, 2, 7).spec(), "churn:0.5,0.5x7");
  EXPECT_EQ(ramp(0, 0, 1, 1, 4, 9).spec(), "ramp:0,0,1,1,4x9");
  EXPECT_EQ(ramp(0, 0, 1, 1, 2, 9).spec(), "ramp:0,0,1,1x9");
  expect_valid(AttackGenome({churn(0.5, 0.5, 3, 7), ramp(0, 0, 1, 1, 4, 9)}));
}

TEST(GenomeParse, SpecIsValidScenarioSyntax) {
  // One hand-built genome per move kind: each loads through the
  // scenario layer unchanged, which is what makes hunted candidates
  // grid-cell citizens.
  const AttackGenome genomes[] = {
      AttackGenome({strike("maxnode", 3)}),
      AttackGenome({batch(4, "random", 2)}),
      AttackGenome({churn(1, 1, 1, 4)}),
      AttackGenome({join(2, 5)}),
      AttackGenome({ramp(0, 0.25, 1, 0.75, 3, 6)}),
      AttackGenome({mix({{3, strike("adaptive", 1)},
                         {1, churn(0.5, 0.5, 2, 2)},
                         {9, batch(64, "hubs", 2000)},
                         {2, ramp(0.05, 0, 0, 0.95, 8, 1)}},
                        4)}),
  };
  for (const AttackGenome& g : genomes) {
    SCOPED_TRACE(g.spec());
    expect_valid(g);
  }
}

TEST(GenomeParse, HashIsStableAndDiscriminates) {
  const AttackGenome a({strike("maxnode", 3)});
  EXPECT_EQ(a.hash(), AttackGenome({strike("maxnode", 3)}).hash());
  EXPECT_NE(a.hash(), AttackGenome({strike("maxnode", 4)}).hash());
  EXPECT_EQ(a.hash_hex().size(), 16u);
}

// ---- mutation kit -----------------------------------------------------

TEST(MutationKit, OperatorsStayInsideTheGrammar) {
  util::Rng rng(42);
  for (int i = 0; i < 50; ++i) expect_valid(random_genome(rng));
  AttackGenome g = random_genome(rng);
  for (int i = 0; i < 200; ++i) {
    mutate_genome(g, rng);
    SCOPED_TRACE("edit " + std::to_string(i));
    expect_valid(g);
  }
}

TEST(MutationKit, MutationIsSeedDeterministic) {
  util::Rng a(7);
  util::Rng b(7);
  AttackGenome ga = random_genome(a);
  AttackGenome gb = random_genome(b);
  EXPECT_EQ(ga.spec(), gb.spec());
  for (int i = 0; i < 50; ++i) {
    mutate_genome(ga, a);
    mutate_genome(gb, b);
    ASSERT_TRUE(ga == gb) << "diverged at edit " << i;
  }
}

TEST(MutationKit, CrossoverSplicesValidGenomes) {
  util::Rng rng(3);
  const AttackGenome a = random_genome(rng);
  const AttackGenome b = random_genome(rng);
  for (int i = 0; i < 50; ++i) {
    SCOPED_TRACE("child " + std::to_string(i));
    expect_valid(crossover(a, b, rng));
  }
}

}  // namespace
}  // namespace dash::hunt
