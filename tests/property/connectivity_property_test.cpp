// connectivity_property_test.cpp -- the tracker-vs-BFS differential
// property at the engine level: for EVERY scenario phase type (strike /
// batch / churn / targeted / until / repeat / floor) the engine must
// report identical stayed_connected, component structure, Metrics and
// per-round rows whether the incremental DynamicConnectivity tracker or
// the per-round BFS answers -- under both sequential and parallel
// run_suite execution, and for healers that keep the network connected
// (dash, graph) as well as one that lets it shatter (none).
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <string>
#include <vector>

#include "api/api.h"
#include "graph/generators.h"
#include "util/thread_pool.h"

namespace dash::api {
namespace {

constexpr std::size_t kInstances = 4;
constexpr std::uint64_t kSeed = 0xC0117u;

void expect_metrics_eq(const Metrics& a, const Metrics& b,
                       const std::string& what) {
  EXPECT_EQ(a.deletions, b.deletions) << what;
  EXPECT_EQ(a.joins, b.joins) << what;
  EXPECT_EQ(a.max_delta, b.max_delta) << what;
  EXPECT_EQ(a.max_id_changes, b.max_id_changes) << what;
  EXPECT_EQ(a.max_messages, b.max_messages) << what;
  EXPECT_EQ(a.max_messages_sent, b.max_messages_sent) << what;
  EXPECT_EQ(a.edges_added, b.edges_added) << what;
  EXPECT_EQ(a.surrogate_heals, b.surrogate_heals) << what;
  EXPECT_DOUBLE_EQ(a.max_stretch, b.max_stretch) << what;
  EXPECT_EQ(a.components, b.components) << what;
  EXPECT_EQ(a.largest_component, b.largest_component) << what;
  EXPECT_EQ(a.stayed_connected, b.stayed_connected) << what;
  EXPECT_EQ(a.violation, b.violation) << what;
}

void expect_rows_eq(const std::vector<RoundRow>& a,
                    const std::vector<RoundRow>& b,
                    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].instance, b[i].instance) << what << " row " << i;
    EXPECT_EQ(a[i].round, b[i].round) << what << " row " << i;
    EXPECT_EQ(a[i].deletions_in_round, b[i].deletions_in_round)
        << what << " row " << i;
    EXPECT_EQ(a[i].event_node, b[i].event_node) << what << " row " << i;
    EXPECT_EQ(a[i].is_join, b[i].is_join) << what << " row " << i;
    EXPECT_EQ(a[i].alive, b[i].alive) << what << " row " << i;
    EXPECT_EQ(a[i].edges, b[i].edges) << what << " row " << i;
    EXPECT_EQ(a[i].edges_added, b[i].edges_added) << what << " row " << i;
    EXPECT_EQ(a[i].max_delta, b[i].max_delta) << what << " row " << i;
    EXPECT_EQ(a[i].largest_component, b[i].largest_component)
        << what << " row " << i;
  }
}

/// Per-instance component extremes gathered through the inspect hook;
/// the ComponentObserver queries the engine EVERY round, so matching
/// extremes mean every per-round answer agreed between the modes.
struct RunResult {
  std::vector<Metrics> metrics;
  std::vector<RoundRow> rows;
  std::vector<std::size_t> max_components;
  std::vector<std::size_t> min_largest;
};

RunResult run_config(const std::string& spec, const std::string& healer,
                     ConnectivityMode mode, bool parallel) {
  RunResult out;
  out.max_components.resize(kInstances);
  out.min_largest.resize(kInstances);
  MemorySink rows;

  SuiteConfig cfg;
  cfg.instances = kInstances;
  cfg.base_seed = kSeed;
  cfg.make_graph = [](dash::util::Rng& rng) {
    return graph::barabasi_albert(48, 2, rng);
  };
  cfg.make_healer = healer_factory(healer);
  cfg.scenario = Scenario::parse(spec);
  cfg.sinks = {&rows};
  cfg.record_rows = true;
  cfg.configure = [mode](Network& net) {
    net.set_connectivity_mode(mode);
    net.add_observer(std::make_unique<ComponentObserver>());
    net.add_observer(std::make_unique<InvariantObserver>());
  };
  cfg.inspect = [&out](std::size_t i, const Network& net, const Metrics&) {
    const auto* comps = dynamic_cast<const ComponentObserver*>(
        net.find_observer("components"));
    ASSERT_NE(comps, nullptr);
    out.max_components[i] = comps->max_components_seen();
    out.min_largest[i] = comps->min_largest_seen();
  };

  if (parallel) {
    dash::util::ThreadPool pool(4);
    out.metrics = run_suite(cfg, pool);
  } else {
    out.metrics = run_suite(cfg);
  }
  out.rows = rows.rows();
  return out;
}

class ConnectivityProperty
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ConnectivityProperty, TrackerMatchesBfsSequentialAndParallel) {
  const std::string spec = GetParam();
  for (const char* healer : {"dash", "graph", "none"}) {
    const std::string what = spec + " / " + healer;
    const RunResult baseline =
        run_config(spec, healer, ConnectivityMode::kBfs, /*parallel=*/false);
    ASSERT_EQ(baseline.metrics.size(), kInstances) << what;

    const RunResult variants[] = {
        run_config(spec, healer, ConnectivityMode::kTracker, false),
        run_config(spec, healer, ConnectivityMode::kTracker, true),
        run_config(spec, healer, ConnectivityMode::kBfs, true),
    };
    const char* names[] = {"tracker/seq", "tracker/par", "bfs/par"};
    for (std::size_t v = 0; v < 3; ++v) {
      const std::string label = what + " vs " + names[v];
      ASSERT_EQ(variants[v].metrics.size(), kInstances) << label;
      for (std::size_t i = 0; i < kInstances; ++i) {
        expect_metrics_eq(baseline.metrics[i], variants[v].metrics[i],
                          label + " instance " + std::to_string(i));
        EXPECT_EQ(baseline.max_components[i], variants[v].max_components[i])
            << label << " instance " << i;
        EXPECT_EQ(baseline.min_largest[i], variants[v].min_largest[i])
            << label << " instance " << i;
      }
      expect_rows_eq(baseline.rows, variants[v].rows, label);
    }
  }
}

TEST_P(ConnectivityProperty, VerifyModeSelfChecksEveryAnswer) {
  // kVerify DASH_CHECKs tracker-vs-BFS agreement inside the engine on
  // every ask; surviving the run IS the assertion.
  const std::string spec = GetParam();
  for (const char* healer : {"dash", "none"}) {
    const RunResult r =
        run_config(spec, healer, ConnectivityMode::kVerify, false);
    ASSERT_EQ(r.metrics.size(), kInstances) << spec << " / " << healer;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPhaseTypes, ConnectivityProperty,
    ::testing::Values(
        "strike:randomx25",                          // strike
        "batch:4,randomx3",                          // batch
        "churn:0.4,0.4x60",                          // churn
        "targeted:maxnodex30",                       // targeted
        "until:10,random",                           // until
        "repeat:3{strike:randomx5;churn:0.3,0.2x10}",  // repeat (nested)
        "floor:16;targeted:maxnode",                 // floor
        // batch heals merge ids that later unhealed strikes split
        "batch:3,hubsx8;strike:randomx30"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(ConnectivityPropertyExtras, StopWhenDisconnectedAgreesAcrossModes) {
  // run() + stop_when_disconnected forces a per-round ask; the round at
  // which an unhealed network dies must not depend on the mode.
  auto run_mode = [](ConnectivityMode mode) {
    dash::util::Rng rng(99);
    graph::Graph g = graph::barabasi_albert(64, 2, rng);
    Network net(std::move(g), "none", 7);
    net.set_connectivity_mode(mode);
    auto attacker = attack::make_attack("maxnode", 3);
    RunOptions opts;
    opts.stop_when_disconnected = true;
    return net.run(*attacker, opts);
  };
  const Metrics bfs = run_mode(ConnectivityMode::kBfs);
  const Metrics tracker = run_mode(ConnectivityMode::kTracker);
  const Metrics verify = run_mode(ConnectivityMode::kVerify);
  EXPECT_FALSE(bfs.stayed_connected);
  EXPECT_EQ(bfs.deletions, tracker.deletions);
  EXPECT_EQ(bfs.stayed_connected, tracker.stayed_connected);
  EXPECT_EQ(bfs.components, tracker.components);
  EXPECT_EQ(bfs.largest_component, tracker.largest_component);
  EXPECT_EQ(bfs.deletions, verify.deletions);
}

TEST(ConnectivityPropertyExtras, AmortizedBatterySeesSameViolations) {
  // battery_every must not change WHETHER a healthy run is clean, and
  // the connectivity part still fires every round.
  for (const std::size_t cadence : {std::size_t{1}, std::size_t{7},
                                    std::size_t{0}}) {
    dash::util::Rng rng(5);
    graph::Graph g = graph::barabasi_albert(96, 2, rng);
    Network net(std::move(g), "dash", 11);
    InvariantOptions opts;
    opts.battery_every = cadence;
    net.add_observer(std::make_unique<InvariantObserver>(opts));
    const Metrics m = net.play(Scenario::parse("targeted:neighborofmax"), 3);
    EXPECT_TRUE(m.violation.empty())
        << "cadence " << cadence << ": " << m.violation;
    EXPECT_TRUE(m.stayed_connected);
  }
}

}  // namespace
}  // namespace dash::api
