// hunt_test.cpp -- the adversary search engine end to end: registry
// parsing, hard budget accounting, backend-independent determinism
// (sequential vs ThreadPool), spool resume and damaged spools, a
// trajectory golden, emitted traces that replay bit-identically and
// round-trip through a grid cell, and the comparison against the
// paper's hand-derived LevelAttack baseline.
#include "hunt/hunt.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "exp/spec.h"
#include "hunt/strategy.h"
#include "replay/play.h"
#include "replay/trace.h"
#include "util/hash.h"

namespace dash::hunt {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch dir under gtest's temp root.
std::string scratch(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "dash_hunt_" + tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A hunt tiny enough to run in milliseconds but rich enough to fill a
/// leaderboard: 10 distinct candidates on a 24-node BA graph against
/// the degree-capped healer.
HuntConfig tiny(const std::string& state_dir = "") {
  HuntConfig cfg;
  cfg.family = "ba";
  cfg.n = 24;
  cfg.healers = {"capped:2"};
  cfg.instances = 1;
  cfg.seed = 5;
  cfg.budget = 10;
  cfg.strategy = "evolve:6";
  cfg.top_k = 2;
  cfg.threads = 1;
  cfg.state_dir = state_dir;
  return cfg;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ---- registries -------------------------------------------------------

TEST(HuntRegistry, StrategySpecsResolve) {
  EXPECT_EQ(make_search_strategy("random")->name(), "random");
  EXPECT_EQ(make_search_strategy("greedy:4")->name(), "greedy");
  EXPECT_EQ(make_search_strategy("hillclimb")->name(), "greedy");
  EXPECT_EQ(make_search_strategy("evolve:8")->name(), "evolve");
  EXPECT_EQ(make_search_strategy("ga")->name(), "evolve");
  EXPECT_THROW(make_search_strategy("anneal"), std::invalid_argument);
  EXPECT_THROW(make_search_strategy("random:3"), std::invalid_argument);
  EXPECT_THROW(make_search_strategy("evolve:2"), std::invalid_argument);
}

TEST(HuntRegistry, FitnessSpecsResolve) {
  EXPECT_EQ(FitnessSpec::parse("delta").text, "delta");
  EXPECT_FALSE(FitnessSpec::parse("delta").needs_stretch());
  const FitnessSpec combo = FitnessSpec::parse("combo:1,0.5,2");
  EXPECT_DOUBLE_EQ(combo.w_delta, 1.0);
  EXPECT_DOUBLE_EQ(combo.w_stretch, 0.5);
  EXPECT_DOUBLE_EQ(combo.w_disconnect, 2.0);
  EXPECT_TRUE(combo.needs_stretch());
  EXPECT_EQ(combo.text, "combo:1,0.5,2");
  EXPECT_THROW(FitnessSpec::parse("entropy"), std::invalid_argument);
  EXPECT_THROW(FitnessSpec::parse("combo:0,0,0"), std::invalid_argument);
  EXPECT_THROW(FitnessSpec::parse("combo:1,-1,0"), std::invalid_argument);
}

// ---- budget -----------------------------------------------------------

TEST(Hunt, BudgetIsAHardCap) {
  auto cfg = tiny();
  cfg.budget = 7;
  cfg.strategy = "random";
  const HuntResult r = run_hunt(cfg);
  EXPECT_EQ(r.evaluations, 7u);
  ASSERT_FALSE(r.best.empty());
  EXPECT_LE(r.best.size(), cfg.top_k);
  EXPECT_EQ(r.best.front().rank, 1u);
}

// ---- backend determinism ----------------------------------------------

TEST(Hunt, BackendsProduceIdenticalLeaderboards) {
  auto seq = tiny();
  auto pooled = tiny();
  pooled.threads = 4;

  const HuntResult a = run_hunt(seq);
  const HuntResult b = run_hunt(pooled);

  EXPECT_EQ(a.leaderboard_json, b.leaderboard_json);
  ASSERT_FALSE(a.best.empty());
  ASSERT_FALSE(b.best.empty());
  EXPECT_EQ(a.best.front().genome.spec(), b.best.front().genome.spec());
  EXPECT_DOUBLE_EQ(a.best.front().fitness, b.best.front().fitness);
}

// ---- spool resume -----------------------------------------------------

TEST(Hunt, SpoolResumeReplaysTheSameTrajectory) {
  const std::string dir = scratch("resume");
  auto cfg = tiny(dir);
  const HuntResult first = run_hunt(cfg);
  ASSERT_FALSE(first.leaderboard_path.empty());
  const std::string leaderboard_bytes = slurp(first.leaderboard_path);
  EXPECT_EQ(leaderboard_bytes, first.leaderboard_json);

  // Resume from the spool: every score is a warm cache hit, and the
  // rewritten artifacts are byte-identical.
  auto again = tiny(dir);
  again.resume = true;
  const HuntResult second = run_hunt(again);
  EXPECT_EQ(second.leaderboard_json, first.leaderboard_json);
  EXPECT_EQ(slurp(second.leaderboard_path), leaderboard_bytes);
  fs::remove_all(dir);
}

TEST(Hunt, SpoolFromDifferentConfigIsRejected) {
  const std::string dir = scratch("stale");
  run_hunt(tiny(dir));
  auto other = tiny(dir);
  other.resume = true;
  other.n = 32;  // different evaluation identity
  EXPECT_THROW(run_hunt(other), std::invalid_argument);
  fs::remove_all(dir);
}

/// The spool's lines without their newlines.
std::vector<std::string> spool_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::istringstream in(slurp(path));
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

void write_lines(const std::string& path,
                 const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const std::string& line : lines) out << line << "\n";
}

TEST(Hunt, DamagedSpoolRecordBeforeTheLastLineIsANamedError) {
  // Only the final line may be torn by an interrupted write. A damaged
  // record before it is corruption: resuming fails up front, naming
  // the file and the line, before any of its bytes can reach the
  // leaderboard.
  const std::string dir = scratch("damaged");
  run_hunt(tiny(dir));
  const std::string path = dir + "/spool.tsv";
  const std::vector<std::string> pristine = spool_lines(path);
  ASSERT_GE(pristine.size(), 4u);  // header + records

  std::vector<std::string> torn = pristine;
  torn[2].resize(torn[2].size() - 7);  // inside the group JSON
  std::vector<std::string> garbage = pristine;
  garbage[2] = garbage[2].substr(0, garbage[2].rfind('\t') + 1) +
               "{\"runs\":[]}";
  for (const auto& lines : {torn, garbage}) {
    write_lines(path, lines);
    auto again = tiny(dir);
    again.resume = true;
    try {
      run_hunt(again);
      ADD_FAILURE() << "resumed from a damaged spool";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << e.what();
    }
  }
  fs::remove_all(dir);
}

TEST(Hunt, TornFinalSpoolLineIsDroppedAndRecomputed) {
  const std::string dir = scratch("torn_tail");
  const HuntResult first = run_hunt(tiny(dir));
  const std::string leaderboard_bytes = slurp(first.leaderboard_path);
  const std::string path = dir + "/spool.tsv";
  std::string spool = slurp(path);
  spool.resize(spool.size() - 40);  // a kill mid-write of the last record
  std::ofstream(path, std::ios::binary | std::ios::trunc) << spool;

  auto again = tiny(dir);
  again.resume = true;
  const HuntResult second = run_hunt(again);
  EXPECT_EQ(second.leaderboard_json, first.leaderboard_json);
  EXPECT_EQ(slurp(second.leaderboard_path), leaderboard_bytes);
  fs::remove_all(dir);
}

// ---- trajectory golden ------------------------------------------------

TEST(Hunt, TrajectoryMatchesRecordedHashes) {
  // Fixed small hunts against two healers, with mix moves, hashed byte
  // for byte: the spool holds every candidate in request order with
  // its score and group bytes, so any change to genome rendering, the
  // mutation kit's draws or the scoring moves a hash. A refactor of
  // the hunt must keep these constants; a change that means to move
  // the trajectory re-records them and says so.
  struct Golden {
    const char* strategy;
    const char* spool;
    const char* leaderboard;
  };
  const Golden goldens[] = {
      {"evolve:6", "729663f4f6463e6a", "42e9cf1443aa15e5"},
      {"greedy:4", "004966f31985d3d2", "b441d442f20a730a"},
  };
  for (const Golden& golden : goldens) {
    const std::string dir = scratch("golden");
    auto cfg = tiny(dir);
    cfg.healers = {"capped:2", "dash"};
    cfg.budget = 120;
    cfg.strategy = golden.strategy;
    const HuntResult result = run_hunt(cfg);
    EXPECT_EQ(result.evaluations, 120u);
    const std::string spool = slurp(dir + "/spool.tsv");
    EXPECT_NE(spool.find("mix:"), std::string::npos)
        << golden.strategy << " bred no mix move";
    EXPECT_EQ(util::hex16(util::fnv1a64(spool)), golden.spool)
        << golden.strategy;
    EXPECT_EQ(util::hex16(util::fnv1a64(result.leaderboard_json)),
              golden.leaderboard)
        << golden.strategy;
    fs::remove_all(dir);
  }
}

// ---- emitted traces ---------------------------------------------------

TEST(Hunt, EmittedTraceReplaysAndRoundTripsAGridCell) {
  const std::string dir = scratch("trace");
  auto cfg = tiny(dir);
  const HuntResult result = run_hunt(cfg);
  ASSERT_FALSE(result.best.empty());
  const std::string& trace_path = result.best.front().trace_path;
  ASSERT_FALSE(trace_path.empty());

  // The trace replays bit-identically standalone (strict digests).
  const replay::Trace t = replay::load_trace_file(trace_path);
  const replay::ReplayResult r = replay::play_trace(t);
  EXPECT_TRUE(r.ok()) << r.failure();

  // Loaded back as a grid-cell scenario with the hunt's own base seed
  // and instance count, the cell reproduces the scored run's bytes.
  exp::ExperimentSpec spec;
  spec.name = "roundtrip";
  spec.families = {cfg.family};
  spec.sizes = {cfg.n};
  spec.healers = cfg.healers;
  spec.scenarios = {"trace:" + trace_path};
  spec.instances = cfg.instances;
  spec.seed = cfg.seed;
  spec.labels = "spec";
  const std::vector<exp::Cell> cells = spec.enumerate();
  ASSERT_EQ(cells.size(), 1u);
  const exp::CellResult cell = exp::run_cell(spec, cells[0]);

  const auto runs_slice = [](const std::string& group) {
    const auto at = group.find("\"runs\":[");
    const auto end = group.find("],\"summary\"");
    EXPECT_NE(at, std::string::npos);
    EXPECT_NE(end, std::string::npos);
    return group.substr(at, end - at);
  };
  // The leaderboard's first group is the rank-1 winner's.
  EXPECT_EQ(runs_slice(cell.group_json),
            runs_slice(result.leaderboard_json));
  fs::remove_all(dir);
}

// ---- baseline comparison ----------------------------------------------

TEST(Hunt, LevelBaselineMatchesTheAnalyticalConstruction) {
  const LevelBaseline base = level_attack_baseline(64, 2, 5);
  // n=64, m=2: largest complete 4-ary tree is depth 2 (21 nodes).
  EXPECT_EQ(base.depth, 2u);
  EXPECT_EQ(base.nodes, 21u);
  EXPECT_GT(base.fitness, 0.0);
  EXPECT_THROW(level_attack_baseline(4, 2, 5), std::invalid_argument);
}

TEST(Hunt, SearchMatchesLevelAttackBaseline) {
  // The acceptance bar: a modest hunt budget finds a schedule whose
  // degree-blowup fitness is at least the paper's hand-derived
  // LevelAttack construction at the same n.
  const LevelBaseline base = level_attack_baseline(64, 2, 5);
  HuntConfig cfg;
  cfg.family = "ba";
  cfg.n = 64;
  cfg.healers = {"capped:2"};
  cfg.instances = 1;
  cfg.seed = 5;
  cfg.budget = 120;
  cfg.strategy = "evolve:12";
  cfg.threads = 0;  // hardware pool: this is the slow test here
  const HuntResult result = run_hunt(cfg);
  ASSERT_FALSE(result.best.empty());
  EXPECT_GE(result.best.front().fitness, base.fitness)
      << "hunted " << result.best.front().genome.spec();
}

}  // namespace
}  // namespace dash::hunt
