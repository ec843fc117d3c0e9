// traversal_engine_property_test.cpp -- the flat-engine differential
// property at the engine level: for EVERY scenario phase type (strike /
// batch / churn / targeted / until / untilfrac / repeat / floor) the
// zero-alloc scratch BFS, the FlatView component labelling, and the
// single-pass stretch_stats must reproduce the legacy per-call-allocating implementations bit for bit
// -- max stretch exactly (same IEEE divisions), averages to rounding
// (the fold order is documented), everything else structurally equal --
// at every sampled round of a live healing run.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "analysis/stretch.h"
#include "api/api.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "util/thread_pool.h"

namespace dash::api {
namespace {

using analysis::StretchStats;
using analysis::StretchTracker;
using graph::Components;
using graph::Graph;
using graph::kInvalidComponent;
using graph::kUnreachable;
using graph::NodeId;

// ---- legacy reference implementations (pre-flat-engine, verbatim) ----

std::vector<std::uint32_t> ref_bfs_distances(const Graph& g, NodeId src) {
  std::vector<std::uint32_t> dist(g.num_nodes(), kUnreachable);
  std::deque<NodeId> frontier;
  dist[src] = 0;
  frontier.push_back(src);
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop_front();
    const std::uint32_t next = dist[v] + 1;
    for (NodeId u : g.neighbors(v)) {
      if (dist[u] == kUnreachable) {
        dist[u] = next;
        frontier.push_back(u);
      }
    }
  }
  return dist;
}

Components ref_connected_components(const Graph& g) {
  Components out;
  out.label.assign(g.num_nodes(), kInvalidComponent);
  std::deque<NodeId> frontier;
  for (NodeId root = 0; root < g.num_nodes(); ++root) {
    if (!g.alive(root) || out.label[root] != kInvalidComponent) continue;
    const auto comp = static_cast<std::uint32_t>(out.sizes.size());
    out.sizes.push_back(0);
    out.label[root] = comp;
    frontier.push_back(root);
    while (!frontier.empty()) {
      const NodeId v = frontier.front();
      frontier.pop_front();
      ++out.sizes[comp];
      for (NodeId u : g.neighbors(v)) {
        if (out.label[u] == kInvalidComponent) {
          out.label[u] = comp;
          frontier.push_back(u);
        }
      }
    }
  }
  return out;
}

/// The historical StretchTracker::max_stretch / average_stretch pair
/// loops (one heap-allocating BFS per source), against the tracker's
/// frozen original distances.
StretchStats ref_stretch(const StretchTracker& tracker, const Graph& g) {
  const auto alive = g.alive_nodes();
  if (alive.size() < 2) return {};
  double worst = 0.0;
  double sum = 0.0;
  std::size_t pairs = 0;
  for (NodeId u : alive) {
    const auto dist = ref_bfs_distances(g, u);
    for (NodeId v : alive) {
      if (v <= u) continue;
      if (dist[v] == kUnreachable) {
        constexpr double inf = std::numeric_limits<double>::infinity();
        return {inf, inf};
      }
      const std::uint32_t base = tracker.original_distance(u, v);
      worst = std::max(worst, static_cast<double>(dist[v]) /
                                  static_cast<double>(base));
      sum += static_cast<double>(dist[v]) / static_cast<double>(base);
      ++pairs;
    }
  }
  return {worst, sum / static_cast<double>(pairs)};
}

// ---- the per-round differential observer -----------------------------

/// Rides a live engine run and, every few rounds, replays the round's
/// graph through both engines: flat scratch traversals vs the legacy
/// reference, and the wave-based stretch_stats vs the legacy per-pair
/// implementation.
class EngineDifferentialObserver final : public Observer {
 public:
  std::string name() const override { return "engine-diff"; }

  void on_attach(const Network& net) override {
    tracker_.emplace(net.graph());
  }

  void on_join(const Network&, const JoinEvent&) override {
    // Joins grow the id space past the frozen baseline, exactly like
    // StretchObserver's deactivation rule.
    stretch_active_ = false;
  }

  void on_round_end(const Network& net, const RoundEvent& ev) override {
    if (ev.round % 3 != 0) return;
    const Graph& g = net.graph();
    const std::string what = "round " + std::to_string(ev.round);
    ++rounds_checked_;

    // Traversal differential: distances from a spread of sources, and
    // the full component labelling.
    graph::TraversalScratch scratch;
    const auto alive = g.alive_nodes();
    for (std::size_t i = 0; i < alive.size();
         i += 1 + alive.size() / 5) {
      const NodeId src = alive[i];
      const auto want = ref_bfs_distances(g, src);
      graph::bfs_distances(g.flat_view(), src, scratch);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        ASSERT_EQ(scratch.distance(v), want[v])
            << what << " src=" << src << " v=" << v;
      }
    }
    const Components want_comps = ref_connected_components(g);
    const Components got_comps = graph::connected_components(g);
    ASSERT_EQ(got_comps.label, want_comps.label) << what;
    ASSERT_EQ(got_comps.sizes, want_comps.sizes) << what;
    ASSERT_EQ(graph::is_connected(g), want_comps.count() <= 1) << what;

    if (!stretch_active_) return;
    const StretchStats want = ref_stretch(*tracker_, g);
    const StretchStats seq = tracker_->stretch_stats(g);
    // Max folds through the identical IEEE divisions: exact equality,
    // including the +inf disconnected case.
    ASSERT_EQ(seq.max, want.max) << what;
    // The average's fold order changed (per-base integer sums); agree
    // with the legacy pair-ordered fold to rounding.
    if (std::isinf(want.average)) {
      ASSERT_TRUE(std::isinf(seq.average)) << what;
    } else {
      ASSERT_NEAR(seq.average, want.average,
                  1e-9 * (1.0 + std::abs(want.average)))
          << what;
    }
  }

  std::size_t rounds_checked() const { return rounds_checked_; }

 private:
  std::optional<StretchTracker> tracker_;
  bool stretch_active_ = true;
  std::size_t rounds_checked_ = 0;
};

class TraversalEngineProperty
    : public ::testing::TestWithParam<const char*> {};

TEST_P(TraversalEngineProperty, FlatEngineMatchesLegacyEveryPhaseType) {
  const std::string spec = GetParam();
  for (const char* healer : {"dash", "none"}) {
    // Sequential instances so the observer's assertions run on this
    // thread.
    std::size_t checked = 0;
    SuiteConfig cfg;
    cfg.instances = 2;
    cfg.base_seed = 0xD1FFu;
    cfg.make_graph = [](dash::util::Rng& rng) {
      return graph::barabasi_albert(40, 2, rng);
    };
    cfg.make_healer = healer_factory(healer);
    cfg.scenario = Scenario::parse(spec);
    cfg.configure = [](Network& net) {
      net.add_observer(std::make_unique<EngineDifferentialObserver>());
    };
    cfg.inspect = [&checked](std::size_t, const Network& net,
                             const Metrics&) {
      const auto* diff = dynamic_cast<const EngineDifferentialObserver*>(
          net.find_observer("engine-diff"));
      ASSERT_NE(diff, nullptr);
      checked += diff->rounds_checked();
    };
    const auto results = run_suite(cfg);
    ASSERT_EQ(results.size(), 2u) << spec << " / " << healer;
    EXPECT_GT(checked, 0u) << spec << " / " << healer;
  }
}

TEST_P(TraversalEngineProperty, SuiteMaxStretchIdenticalSeqAndParallel) {
  // The figure-bench path: a StretchObserver per instance, run_suite
  // sequential vs thread-pool fan-out -- Metrics::max_stretch must be
  // the same double either way.
  const std::string spec = GetParam();
  auto run = [&](dash::util::ThreadPool* pool) {
    SuiteConfig cfg;
    cfg.instances = 3;
    cfg.base_seed = 0xFEEDu;
    cfg.make_graph = [](dash::util::Rng& rng) {
      return graph::barabasi_albert(32, 2, rng);
    };
    cfg.make_healer = healer_factory("dash");
    cfg.scenario = Scenario::parse(spec);
    cfg.configure = [](Network& net) {
      net.add_observer(std::make_unique<StretchObserver>(2));
    };
    return pool ? run_suite(cfg, *pool) : run_suite(cfg);
  };
  const auto seq = run(nullptr);
  dash::util::ThreadPool pool(4);
  const auto par = run(&pool);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].max_stretch, par[i].max_stretch) << spec << " " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPhaseTypes, TraversalEngineProperty,
    ::testing::Values(
        "strike:randomx12",                            // strike
        "batch:4,randomx3",                            // batch
        "churn:0.3,0.5x24",                            // churn (joins)
        "targeted:maxnodex14",                         // targeted
        "until:20,random",                             // until
        "untilfrac:0.6,maxnode",                       // untilfrac
        "repeat:2{strike:randomx4;batch:3,hubs}",      // repeat (nested)
        "floor:24;targeted:maxnode"),                  // floor
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace dash::api
