// Differential-fuzzing tests: mutation is deterministic in its seed,
// the scenario-aware trace operators reorder phases and move churn
// density, mutants replay cleanly across every paper healer (any
// violation would be a real engine/healer bug), and an injected failure
// mode (healing off) is found, shrunk, and persisted as a standalone
// repro.
#include "replay/fuzz.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "api/scenario.h"
#include "exp/spec.h"
#include "replay/play.h"
#include "replay/recorder.h"
#include "replay/trace.h"
#include "util/rng.h"

namespace dash::replay {
namespace {

Trace golden_trace(std::uint64_t seed = 7) {
  RecordConfig cfg;
  cfg.make_graph = exp::make_family("ba", 32, 2);
  cfg.scenario = api::Scenario::parse("paper-churn");
  cfg.seed = seed;
  std::ostringstream os;
  record_scenario(cfg, os);
  std::istringstream in(os.str());
  return load_trace(in);
}

std::string dump(const Trace& t) {
  std::ostringstream os;
  write_trace(os, t);
  return os.str();
}

TEST(Fuzz, MutationIsDeterministicInSeed) {
  const Trace golden = golden_trace();
  util::Rng a(99), b(99);
  const Trace ma = mutate_trace(golden, a);
  const Trace mb = mutate_trace(golden, b);
  EXPECT_EQ(dump(ma), dump(mb));
  EXPECT_FALSE(ma.complete()) << "mutants must drop the footer";
  for (const TraceEvent& e : ma.events) {
    EXPECT_EQ(e.row_hash, 0u) << "stale digests must be zeroed";
  }
}

TEST(Fuzz, MutationActuallyPerturbs) {
  const Trace golden = golden_trace();
  Trace unfooted = golden;
  unfooted.footer.reset();
  for (TraceEvent& e : unfooted.events) e.row_hash = 0;
  const std::string baseline = dump(unfooted);
  util::Rng rng(1);
  std::size_t changed = 0;
  for (int i = 0; i < 8; ++i) {
    if (dump(mutate_trace(golden, rng)) != baseline) ++changed;
  }
  EXPECT_GT(changed, 0u);
}

TEST(Fuzz, PaperHealersSurviveMutants) {
  const Trace golden = golden_trace();
  FuzzOptions opt;
  opt.mutants = 4;
  opt.seed = 5;
  const FuzzReport report = fuzz_trace(golden, opt);
  EXPECT_EQ(report.mutants, 4u);
  // Default healer set is the paper's five strategies.
  EXPECT_EQ(report.replays, 4u * 5u);
  for (const FuzzFailure& f : report.failures) {
    ADD_FAILURE() << "mutant " << f.mutant << " under " << f.healer
                  << ": " << f.violation;
  }
  EXPECT_TRUE(report.ok());
}

TEST(Fuzz, InjectedFailureIsFoundShrunkAndPersisted) {
  const Trace golden = golden_trace();
  const std::string dir =
      ::testing::TempDir() + "dash_fuzz_repro_test";
  std::filesystem::remove_all(dir);
  FuzzOptions opt;
  opt.mutants = 6;
  opt.seed = 3;
  opt.healers = {"none"};  // healing off: mutants keep disconnecting
  opt.repro_dir = dir;
  const FuzzReport report = fuzz_trace(golden, opt);
  EXPECT_EQ(report.replays, 6u);
  ASSERT_FALSE(report.failures.empty());
  for (const FuzzFailure& f : report.failures) {
    EXPECT_EQ(f.healer, "none");
    EXPECT_FALSE(f.violation.empty());
    EXPECT_LE(f.shrunk_events, f.original_events);
    ASSERT_FALSE(f.repro_path.empty());
    // The repro replays standalone: its recorded healer is the failing
    // one, so no override is needed.
    const Trace repro = load_trace_file(f.repro_path);
    EXPECT_EQ(repro.healer, "none");
    ReplayOptions ropt;
    ropt.lenient = true;
    ropt.check_invariants = true;
    EXPECT_FALSE(play_trace(repro, ropt).ok());
  }
}

TEST(Fuzz, NoShrinkSkipsReproFiles) {
  const Trace golden = golden_trace();
  FuzzOptions opt;
  opt.mutants = 3;
  opt.seed = 3;
  opt.healers = {"none"};
  opt.shrink = false;
  const FuzzReport report = fuzz_trace(golden, opt);
  ASSERT_FALSE(report.failures.empty());
  for (const FuzzFailure& f : report.failures) {
    EXPECT_TRUE(f.repro_path.empty());
    EXPECT_EQ(f.shrunk_events, f.original_events);
  }
}

// ---- scenario-aware trace operators -----------------------------------

replay::Trace tiny_trace() {
  replay::RecordConfig cfg;
  cfg.make_graph = exp::make_family("ba", 24, 2);
  cfg.scenario = api::Scenario::parse("churn:1,1x6;strike:maxnodex3");
  cfg.seed = 5;
  std::ostringstream os;
  replay::record_scenario(cfg, os);
  std::istringstream in(os.str());
  return replay::load_trace(in);
}

TEST(MutationKit, ReorderTracePhasesIsDeterministicAndStructural) {
  const replay::Trace golden = tiny_trace();
  replay::Trace t1 = golden;
  replay::Trace t2 = golden;
  util::Rng r1(9);
  util::Rng r2(9);
  EXPECT_EQ(reorder_trace_phases(t1, r1), reorder_trace_phases(t2, r2));
  // Same seed, same event stream; reordering never loses events.
  ASSERT_EQ(t1.events.size(), t2.events.size());
  EXPECT_EQ(t1.events.size(), golden.events.size());
  for (std::size_t i = 0; i < t1.events.size(); ++i) {
    EXPECT_EQ(t1.events[i].kind, t2.events[i].kind) << i;
    EXPECT_EQ(t1.events[i].nodes, t2.events[i].nodes) << i;
  }
}

TEST(MutationKit, PerturbTraceChurnChangesDensity) {
  replay::Trace t = tiny_trace();
  const std::size_t before = t.events.size();
  util::Rng rng(11);
  bool changed = false;
  for (int i = 0; i < 20 && !changed; ++i) {
    changed = perturb_trace_churn(t, rng);
  }
  EXPECT_TRUE(changed);
  EXPECT_NE(t.events.size(), before);
}

}  // namespace
}  // namespace dash::replay
