// connectivity_property_test.cpp -- the tracker-vs-BFS differential
// property at the engine level. BFS is the reference, and it lives
// here: for EVERY scenario phase type (strike / batch / churn /
// targeted / until / repeat / floor) a test observer labels the graph's
// components from scratch after every round and join, and the engine's
// tracker-backed answers -- component_snapshot(), RoundEvent::connected()
// and the final Metrics -- must match it, under both sequential and
// pooled run_suite execution (which must also agree with each other),
// for healers that keep the network connected (dash, graph) as well as
// one that lets it shatter (none).
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <string>
#include <vector>

#include "api/api.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "test_helpers.h"
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

/// Labels the components of the live graph by BFS after every round
/// and join, and checks the engine's answers against the labelling.
class BfsReference final : public Observer {
 public:
  std::string name() const override { return "bfs-reference"; }
  void on_round_end(const Network& net, const RoundEvent& ev) override {
    const bool connected = check(net);
    EXPECT_EQ(ev.connected(), connected) << "round " << ev.round;
  }
  void on_join(const Network& net, const JoinEvent&) override {
    check(net);
  }
  std::size_t checks() const { return checks_; }
  bool stayed_connected() const { return stayed_connected_; }

 private:
  bool check(const Network& net) {
    const graph::Components comps = graph::connected_components(net.graph());
    const auto [count, largest] = net.component_snapshot();
    EXPECT_EQ(count, comps.count()) << "after " << net.rounds() << " rounds";
    EXPECT_EQ(largest, comps.largest())
        << "after " << net.rounds() << " rounds";
    ++checks_;
    const bool connected = comps.count() <= 1;
    stayed_connected_ = stayed_connected_ && connected;
    return connected;
  }

  std::size_t checks_ = 0;
  bool stayed_connected_ = true;
};

/// Per-instance component extremes gathered through the inspect hook;
/// the ComponentObserver queries the engine EVERY round, so matching
/// extremes mean every per-round answer agreed between the runs.
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
    net.add_observer(std::make_unique<BfsReference>());
  };
  cfg.inspect = [&out](std::size_t i, const Network& net, const Metrics& m) {
    const auto* comps = dynamic_cast<const ComponentObserver*>(
        net.find_observer("components"));
    ASSERT_NE(comps, nullptr);
    out.max_components[i] = comps->max_components_seen();
    out.min_largest[i] = comps->min_largest_seen();
    const auto* bfs =
        dynamic_cast<const BfsReference*>(net.find_observer("bfs-reference"));
    ASSERT_NE(bfs, nullptr);
    EXPECT_GT(bfs->checks(), 0u);
    EXPECT_EQ(m.stayed_connected, bfs->stayed_connected());
    const graph::Components truth = graph::connected_components(net.graph());
    EXPECT_EQ(m.components, truth.count());
    EXPECT_EQ(m.largest_component, truth.largest());
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
  // BfsReference checks every per-round answer inside both runs; the
  // pooled run must then reproduce the sequential one exactly.
  const std::string spec = GetParam();
  for (const char* healer : {"dash", "graph", "none"}) {
    const std::string what = spec + " / " + healer + " seq vs pooled";
    const RunResult seq =
        run_config(spec, healer, ConnectivityMode::kTracker, false);
    const RunResult pooled =
        run_config(spec, healer, ConnectivityMode::kTracker, true);
    ASSERT_EQ(seq.metrics.size(), kInstances) << what;
    ASSERT_EQ(pooled.metrics.size(), kInstances) << what;
    for (std::size_t i = 0; i < kInstances; ++i) {
      expect_metrics_eq(seq.metrics[i], pooled.metrics[i],
                        what + " instance " + std::to_string(i));
      EXPECT_EQ(seq.max_components[i], pooled.max_components[i])
          << what << " instance " << i;
      EXPECT_EQ(seq.min_largest[i], pooled.min_largest[i])
          << what << " instance " << i;
    }
    expect_rows_eq(seq.rows, pooled.rows, what);
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
  // A stop condition asking component_count() > 1 checks every round;
  // in either mode an unhealed network must stop at the first round
  // this test's own BFS sees disconnected.
  class FirstDisconnect final : public Observer {
   public:
    std::string name() const override { return "first-disconnect"; }
    void on_round_end(const Network& net, const RoundEvent& ev) override {
      if (round == 0 && !graph::is_connected(net.graph())) round = ev.round;
    }
    std::size_t round = 0;
  };
  for (const ConnectivityMode mode :
       {ConnectivityMode::kTracker, ConnectivityMode::kVerify}) {
    dash::util::Rng rng(99);
    graph::Graph g = graph::barabasi_albert(64, 2, rng);
    Network net(std::move(g), "none", 7);
    net.set_connectivity_mode(mode);
    FirstDisconnect probe;
    net.add_observer(&probe);
    auto attacker = attack::make_attack("maxnode", 3);
    PlayOptions opts;
    opts.stop_condition = [](const Network& engine) {
      return engine.component_count() > 1;
    };
    const Metrics m = dash::testing::play_attack(net, *attacker, 0, opts);
    EXPECT_FALSE(m.stayed_connected);
    ASSERT_NE(probe.round, 0u);
    EXPECT_EQ(m.deletions, probe.round);
    const graph::Components truth = graph::connected_components(net.graph());
    EXPECT_EQ(m.components, truth.count());
    EXPECT_EQ(m.largest_component, truth.largest());
  }
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
