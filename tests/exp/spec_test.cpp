// Tests for exp::ExperimentSpec: parsing (one-line + file forms),
// validation, canonicalization/hashing, and the deterministic cell
// enumeration the sharded runner builds on.
#include "exp/spec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace dash::exp {
namespace {

TEST(ExperimentSpec, ParsesOneLineForm) {
  const auto spec = ExperimentSpec::parse_line(
      "n=64|128 healer=dash|sdash scenario=paper-churn instances=5 seed=7");
  EXPECT_EQ(spec.sizes, (std::vector<std::size_t>{64, 128}));
  EXPECT_EQ(spec.healers, (std::vector<std::string>{"dash", "sdash"}));
  EXPECT_EQ(spec.scenarios, (std::vector<std::string>{"paper-churn"}));
  EXPECT_EQ(spec.instances, 5u);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(spec.families, (std::vector<std::string>{"ba"}));  // default
}

TEST(ExperimentSpec, ParsesFileFormWithCommentsAndSpaces) {
  std::istringstream in(
      "# demo sweep\n"
      "name      = demo\n"
      "family    = ba | tree\n"
      "n         = 16 | 32\n"
      "healer    = dash\n"
      "scenario  = batch:4x3   # trailing comment\n"
      "\n"
      "instances = 2\n");
  const auto spec = ExperimentSpec::parse(in);
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.families, (std::vector<std::string>{"ba", "tree"}));
  EXPECT_EQ(spec.sizes, (std::vector<std::size_t>{16, 32}));
  EXPECT_EQ(spec.scenarios, (std::vector<std::string>{"batch:4x3"}));
  EXPECT_EQ(spec.instances, 2u);
}

TEST(ExperimentSpec, LineAndFileFormsAgree) {
  const auto line = ExperimentSpec::parse_line(
      "n=16|32 healer=dash|graph scenario=until-quarter instances=3");
  std::istringstream in(
      "n = 16|32\nhealer = dash|graph\nscenario = until-quarter\n"
      "instances = 3\n");
  const auto file = ExperimentSpec::parse(in);
  EXPECT_EQ(line.canonical(), file.canonical());
  EXPECT_EQ(line.hash(), file.hash());
}

TEST(ExperimentSpec, HashIsPinned) {
  // Shard records and resume manifests carry this digest; it must not
  // move.
  const auto spec = ExperimentSpec::parse_line(
      "name=smoke n=24|32 healer=dash|graph "
      "scenario=paper-churn|until-quarter instances=2 seed=11");
  EXPECT_EQ(spec.hash(), "9c901f581e9b4b53");
}

TEST(ExperimentSpec, CanonicalRoundTripsAndScenariosAreCanonicalized) {
  const auto spec = ExperimentSpec::parse_line(
      "n=16 scenario=CHURN:0.3,0.1x50 healer=dash instances=2");
  const auto again = ExperimentSpec::parse_line(spec.canonical());
  EXPECT_EQ(spec.canonical(), again.canonical());
  // The canonical form spells the scenario the way Scenario::spec does.
  EXPECT_NE(spec.canonical().find("churn:0.3,0.1x50"), std::string::npos);
}

TEST(ExperimentSpec, HashChangesWithAnyGridAxis) {
  const auto base = ExperimentSpec::parse_line(
      "n=16 healer=dash scenario=paper-churn instances=2 seed=1");
  for (const char* variant :
       {"n=32 healer=dash scenario=paper-churn instances=2 seed=1",
        "n=16 healer=sdash scenario=paper-churn instances=2 seed=1",
        "n=16 healer=dash scenario=until-quarter instances=2 seed=1",
        "n=16 healer=dash scenario=paper-churn instances=3 seed=1",
        "n=16 healer=dash scenario=paper-churn instances=2 seed=2"}) {
    EXPECT_NE(base.hash(), ExperimentSpec::parse_line(variant).hash())
        << variant;
  }
}

TEST(ExperimentSpec, RejectsMalformedInput) {
  // Unknown key, duplicate key, empty list item, zero counts, bad
  // token shape, empty spec.
  EXPECT_THROW(ExperimentSpec::parse_line("n=16 scenario=x bogus=1"),
               std::invalid_argument);
  EXPECT_THROW(
      ExperimentSpec::parse_line("n=16 n=32 healer=dash scenario=x"),
      std::invalid_argument);
  EXPECT_THROW(
      ExperimentSpec::parse_line("n=16| healer=dash scenario=paper-churn"),
      std::invalid_argument);
  EXPECT_THROW(
      ExperimentSpec::parse_line("n=0 healer=dash scenario=paper-churn"),
      std::invalid_argument);
  EXPECT_THROW(ExperimentSpec::parse_line(
                   "n=16 healer=dash scenario=paper-churn instances=0"),
               std::invalid_argument);
  EXPECT_THROW(ExperimentSpec::parse_line("n16 healer=dash scenario=x"),
               std::invalid_argument);
  EXPECT_THROW(ExperimentSpec::parse_line("   "), std::invalid_argument);
}

TEST(ExperimentSpec, ValidateResolvesNamesThroughRegistries) {
  auto parse = [](const std::string& line) {
    return ExperimentSpec::parse_line(line);
  };
  // Unknown healer: the error lists registered spellings.
  try {
    parse("n=16 healer=nosuchhealer scenario=paper-churn");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("dash"), std::string::npos);
  }
  // Unknown scenario phase / preset: ditto, presets included.
  try {
    parse("n=16 healer=dash scenario=nosuchpreset");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("paper-churn"), std::string::npos);
  }
  // Unknown family and connectivity/labels modes.
  EXPECT_THROW(parse("n=16 healer=dash scenario=paper-churn family=blob"),
               std::invalid_argument);
  EXPECT_THROW(
      parse("n=16 healer=dash scenario=paper-churn connectivity=psychic"),
      std::invalid_argument);
  // The engine has no BFS mode: `bfs` is unknown, and the error lists
  // the two modes there are.
  try {
    parse("n=16 healer=dash scenario=paper-churn connectivity=bfs");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'bfs'"), std::string::npos) << what;
    EXPECT_NE(what.find("tracker"), std::string::npos) << what;
    EXPECT_NE(what.find("verify"), std::string::npos) << what;
  }
  EXPECT_THROW(parse("n=16 healer=dash scenario=paper-churn labels=emoji"),
               std::invalid_argument);
}

TEST(ExperimentSpec, EnumerationIsStableAndContiguous) {
  const auto spec = ExperimentSpec::parse_line(
      "family=ba|tree n=16|32 healer=dash|graph "
      "scenario=paper-churn|until-quarter instances=2 seed=3");
  const auto cells = spec.enumerate();
  ASSERT_EQ(cells.size(), 2u * 2u * 2u * 2u);
  // Family outermost, then n, healer, scenario; indices contiguous.
  EXPECT_EQ(cells[0].family, "ba");
  EXPECT_EQ(cells[0].n, 16u);
  EXPECT_EQ(cells[0].healer, "dash");
  EXPECT_EQ(cells[0].scenario, "paper-churn");
  EXPECT_EQ(cells[1].scenario, "until-quarter");
  EXPECT_EQ(cells[2].healer, "graph");
  EXPECT_EQ(cells[4].n, 32u);
  EXPECT_EQ(cells[8].family, "tree");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    EXPECT_EQ(cells[i].instances, 2u);
  }
  // Re-enumeration is identical (no hidden state).
  const auto again = spec.enumerate();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].seed, again[i].seed);
    EXPECT_EQ(cells[i].scenario, again[i].scenario);
  }
}

TEST(ExperimentSpec, CellSeedsArePairedAcrossHealersAndScenarios) {
  const auto spec = ExperimentSpec::parse_line(
      "n=16|32 healer=dash|graph scenario=paper-churn|until-quarter "
      "instances=2 seed=3");
  const auto cells = spec.enumerate();
  for (const Cell& cell : cells) {
    for (const Cell& other : cells) {
      if (cell.n == other.n) {
        EXPECT_EQ(cell.seed, other.seed)
            << "cells at the same size must draw identical instance "
               "streams (paired comparison)";
      }
    }
  }
  EXPECT_NE(cells.front().seed, cells.back().seed);
}

TEST(ExperimentSpec, LabelsModeControlsStrategyLabel) {
  const auto display = ExperimentSpec::parse_line(
      "n=16 healer=dash scenario=paper-churn");
  EXPECT_EQ(display.enumerate()[0].strategy_label, "DASH");
  const auto raw = ExperimentSpec::parse_line(
      "n=16 healer=dash scenario=paper-churn labels=spec");
  EXPECT_EQ(raw.enumerate()[0].strategy_label, "dash");
}

TEST(ExperimentSpec, CellLabelsElideDefaultFamily) {
  const auto spec = ExperimentSpec::parse_line(
      "n=16 healer=dash scenario=paper-churn");
  EXPECT_FALSE(spec.label_family());
  const auto labels = spec.enumerate()[0].labels(spec.label_family());
  ASSERT_EQ(labels.size(), 3u);
  EXPECT_EQ(labels[0].first, "n");
  EXPECT_EQ(labels[1].first, "strategy");
  EXPECT_EQ(labels[2].first, "scenario");

  const auto tree = ExperimentSpec::parse_line(
      "n=16 family=tree healer=dash scenario=paper-churn");
  EXPECT_TRUE(tree.label_family());
  EXPECT_EQ(tree.enumerate()[0].labels(true)[0].first, "family");
}

TEST(MakeFamily, KnownFamiliesProduceGraphsOfRequestedSize) {
  util::Rng rng(99);
  for (const auto& family : family_names()) {
    auto make = make_family(family, 24, 2);
    const auto g = make(rng);
    EXPECT_EQ(g.num_alive(), 24u) << family;
  }
}

TEST(MakeFamily, UnknownFamilyErrorListsNames) {
  try {
    make_family("hypercube", 16, 2);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ba"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("cycle"), std::string::npos);
  }
}

/// Each family's smallest buildable n at ba_edges = 2 (ba: ba_edges + 1).
const std::vector<std::pair<std::string, std::size_t>>& family_minimums() {
  static const std::vector<std::pair<std::string, std::size_t>> mins = {
      {"ba", 3}, {"tree", 1}, {"gnp", 7}, {"ws", 5}, {"cycle", 3},
      {"line", 1}};
  return mins;
}

TEST(MakeFamily, SmallestSizeBuildsAndValidates) {
  for (const auto& [family, min] : family_minimums()) {
    const auto make = make_family(family, min, 2);
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
      util::Rng rng(seed);
      EXPECT_EQ(make(rng).num_alive(), min) << family << " seed " << seed;
    }
    EXPECT_NO_THROW(ExperimentSpec::parse_line(
        "family=" + family + " n=" + std::to_string(min) +
        " healer=dash scenario=targeted:maxnode"))
        << family;
  }
  util::Rng rng(1);
  EXPECT_EQ(make_family("ba", 6, 5)(rng).num_alive(), 6u);
}

TEST(MakeFamily, SizeBelowTheMinimumIsANamedError) {
  const auto expect_named = [](const std::string& family, std::size_t n,
                               std::size_t ba_edges, std::size_t min) {
    try {
      make_family(family, n, ba_edges);
      ADD_FAILURE() << family << " n=" << n << ": expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + family + "'"), std::string::npos) << what;
      EXPECT_NE(what.find("n >= " + std::to_string(min)), std::string::npos)
          << what;
    }
  };
  for (const auto& [family, min] : family_minimums()) {
    expect_named(family, min - 1, 2, min);
  }
  expect_named("ba", 5, 5, 6);
  EXPECT_THROW(make_family("ba", 16, 0), std::invalid_argument);
  // validate() checks every size of the grid, not only the first, and
  // the grid error names the family.
  for (const auto& [family, min] : family_minimums()) {
    if (min == 1) continue;  // the parser rejects n=0 before validate()
    try {
      ExperimentSpec::parse_line("family=" + family + " n=64|" +
                                 std::to_string(min - 1) +
                                 " healer=dash scenario=targeted:maxnode");
      ADD_FAILURE() << family << ": expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + family + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(MakeFamily, SizeAboveTheIdRangeIsANamedError) {
  for (const auto& [family, min] : family_minimums()) {
    try {
      make_family(family, std::size_t{graph::kInvalidNode} + 1, 2);
      ADD_FAILURE() << family << ": expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + family + "' needs n <= 4294967295"),
                std::string::npos)
          << what;
    }
  }
}

TEST(DoublingSizes, StopsBeforePassingTheEndOrWrapping) {
  EXPECT_EQ(doubling_sizes(64, 1024),
            (std::vector<std::size_t>{64, 128, 256, 512, 1024}));
  EXPECT_EQ(doubling_sizes(33, 64), (std::vector<std::size_t>{33}));
  // Doubling 2^63 wraps to 0: the sweep ends at 2^63.
  EXPECT_EQ(doubling_sizes(std::uint64_t{1} << 62, UINT64_MAX),
            (std::vector<std::size_t>{std::size_t{1} << 62,
                                      std::size_t{1} << 63}));
  EXPECT_EQ(doubling_sizes(64, 1024, "ba", 2), doubling_sizes(64, 1024));
}

TEST(DoublingSizes, BadSweepIsANamedError) {
  // A zero start, a start above the end, a size BA cannot build, and
  // sizes past 32-bit node ids.
  for (const auto& [min_n, max_n] :
       {std::pair<std::uint64_t, std::uint64_t>{0, 64},
        {65, 64},
        {2, 64},
        {std::uint64_t{1} << 62, UINT64_MAX}}) {
    try {
      doubling_sizes(min_n, max_n, "ba", 2);
      ADD_FAILURE() << "--min-n " << min_n << ": expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--min-n " +
                                           std::to_string(min_n)),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace dash::exp
