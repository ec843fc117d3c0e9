// Delta-patched FlatView refreshes must be indistinguishable from full
// rebuilds: same alive set, same degrees, same packed neighbor bytes at
// the same offsets, same edge-entry count -- across every scenario
// phase type, under sequential and pooled suites, across touched-log
// compaction (epoch wrap), slab-block recycling, and recycled snapshots
// whose alive set grows across a word-capacity doubling inside a patch.
#include <algorithm>
#include <bit>
#include <cctype>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/network.h"
#include "api/observer.h"
#include "api/suite.h"
#include "graph/flat_view.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/snapshot_store.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dash::graph {
namespace {

/// Compare an incrementally refreshed view against a from-scratch
/// rebuild of the same graph and against the graph itself. Live content
/// must match exactly (the mirrors share the slab layout, so matching
/// spans are matching bytes); gap regions behind freed blocks are
/// unobservable. The alive set must agree on every id's membership
/// (and on one id past the end), on every rank, and in ascending order.
void expect_patched_equals_full(const FlatView& patched, const Graph& g) {
  FlatView full;
  full.rebuild(g);
  ASSERT_EQ(patched.num_nodes(), full.num_nodes());
  ASSERT_EQ(patched.num_alive(), full.num_alive());
  ASSERT_EQ(patched.num_alive(), g.num_alive());
  ASSERT_EQ(patched.num_edge_entries(), full.num_edge_entries());
  for (NodeId v = 0; v <= full.num_nodes(); ++v) {
    ASSERT_EQ(patched.alive(v), full.alive(v)) << "node " << v;
    ASSERT_EQ(patched.alive(v), g.alive(v)) << "node " << v;
  }
  const std::vector<NodeId> ascending = g.alive_nodes();
  std::vector<NodeId> walked;
  for (const NodeId v : patched.alive_set()) walked.push_back(v);
  ASSERT_EQ(walked, ascending);
  for (std::size_t r = 0; r < ascending.size(); ++r) {
    ASSERT_EQ(patched.kth_alive(r), ascending[r]) << "rank " << r;
    ASSERT_EQ(full.kth_alive(r), ascending[r]) << "rank " << r;
  }
  for (NodeId v = 0; v < full.num_nodes(); ++v) {
    ASSERT_EQ(patched.degree(v), full.degree(v)) << "node " << v;
    const auto a = patched.neighbors(v);
    const auto b = full.neighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "node " << v;
  }
}

/// Observer that drags a persistent FlatView through every round via
/// refresh() -- the delta path whenever the log allows -- and checks it
/// against a full rebuild each time.
class PatchCheckObserver final : public api::Observer {
 public:
  std::string name() const override { return "patch-check"; }
  void on_attach(const api::Network& net) override {
    view_.refresh(net.graph());
    expect_patched_equals_full(view_, net.graph());
  }
  void on_round_end(const api::Network& net,
                    const api::RoundEvent&) override {
    view_.refresh(net.graph());
    expect_patched_equals_full(view_, net.graph());
  }
  void on_join(const api::Network& net, const api::JoinEvent&) override {
    view_.refresh(net.graph());
    expect_patched_equals_full(view_, net.graph());
  }
  void on_finish(const api::Network&, api::Metrics&) override {
    // The whole point is exercising the cheap path; a suite where every
    // refresh fell back to rebuild() would test nothing.
    EXPECT_GT(view_.patched_refreshes(), 0u);
  }

 private:
  FlatView view_;
};

api::SuiteConfig checked_suite(std::size_t n, const std::string& scenario,
                               std::uint64_t seed) {
  api::SuiteConfig cfg;
  cfg.make_graph = [n](util::Rng& rng) {
    return barabasi_albert(n, 2, rng);
  };
  cfg.make_healer = api::healer_factory("dash");
  cfg.scenario = api::Scenario::parse(scenario);
  cfg.instances = 3;
  cfg.base_seed = seed;
  cfg.configure = [](api::Network& net) {
    net.add_observer(std::make_unique<PatchCheckObserver>());
  };
  return cfg;
}

class FlatViewPatchScenario
    : public ::testing::TestWithParam<const char*> {};

TEST_P(FlatViewPatchScenario, SequentialSuiteMatchesFullRebuilds) {
  (void)api::run_suite(checked_suite(96, GetParam(), 0xF1A7));
}

TEST_P(FlatViewPatchScenario, PooledSuiteMatchesFullRebuilds) {
  util::ThreadPool pool(3);
  (void)api::run_suite(checked_suite(96, GetParam(), 0xF1A7), pool);
}

INSTANTIATE_TEST_SUITE_P(
    AllPhaseTypes, FlatViewPatchScenario,
    ::testing::Values("strike:maxnodex20",          // single deletions
                      "batch:6x5",                  // simultaneous batches
                      "churn:0.3,0.1x60",           // join/leave churn
                      "join:2x12",                  // organic growth
                      "untilfrac:0.5,maxnode"),     // fraction-driven attack
    [](const auto& info) {
      std::string name(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(FlatViewPatch, SurvivesLogCompactionEpochWrap) {
  // A tiny graph caps the retained log window at 256 entries; hammer
  // far past it between refreshes so the view's position falls behind
  // the compacted prefix and refresh() must take the rebuild fallback.
  Graph g(8);
  for (NodeId v = 1; v < 8; ++v) g.add_edge(0, v);
  FlatView view;
  view.refresh(g);
  util::Rng rng(0xEC0);
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 300; ++i) {  // > window cap per round
      const NodeId a = static_cast<NodeId>(1 + rng.below(7));
      const NodeId b = static_cast<NodeId>(1 + rng.below(7));
      if (a == b) continue;
      if (g.has_edge(a, b)) {
        g.remove_edge(a, b);
      } else {
        g.add_edge(a, b);
      }
    }
    view.refresh(g);
    expect_patched_equals_full(view, g);
  }
  EXPECT_GT(view.full_rebuilds(), 1u);  // the fallback actually fired
}

TEST(FlatViewPatch, SurvivesSlabBlockRecycling) {
  // Deletions recycle blocks; later growth reuses them at the same
  // offsets for different vertices. Patch refreshes after each step
  // must keep re-mirroring the reused regions correctly.
  Graph g(48);
  util::Rng rng(0x5AB);
  for (NodeId v = 1; v < 48; ++v) {
    g.add_edge(v, static_cast<NodeId>(rng.below(v)));
  }
  FlatView view;
  view.refresh(g);
  std::vector<NodeId> alive = g.alive_nodes();
  for (int step = 0; step < 120; ++step) {
    if (step % 3 == 0 && alive.size() > 8) {
      const std::size_t i = static_cast<std::size_t>(rng.below(alive.size()));
      g.delete_node(alive[i]);
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      const NodeId a = alive[static_cast<std::size_t>(rng.below(alive.size()))];
      const NodeId b = alive[static_cast<std::size_t>(rng.below(alive.size()))];
      if (a != b) g.add_edge(a, b);
    }
    view.refresh(g);
    expect_patched_equals_full(view, g);
  }
  EXPECT_GT(g.slab_free_entries(), 0u);
  EXPECT_GT(view.patched_refreshes(), 0u);
}

/// Joins push the id space past 64 * 2^k (a doubling of the alive set's
/// word capacity) between publishes while a reader keeps the previous
/// epoch pinned. The store then recycles a snapshot last synced several
/// publishes back, whose patch must grow its alive set (rebuilding the
/// Fenwick tree) before flipping the joined ids in. Which publishes can
/// patch depends on where the touched log was compacted, so the start
/// graph is built edge by edge from a fixed rule (node v links to v - 1
/// and v - 2): its log is the test's own, whatever layout a generator
/// builds. `pad` adds and removes one edge that many times first, four
/// log entries each, moving every compaction without changing the
/// graph. Returns how many doublings a patched publish crossed.
std::size_t patched_doublings(std::size_t pad) {
  util::Rng rng(0xD0B1E);
  Graph g(100);
  for (NodeId v = 1; v < 100; ++v) {
    g.add_edge(v, v - 1);
    if (v >= 2) g.add_edge(v, v - 2);
  }
  for (std::size_t i = 0; i < pad; ++i) {
    g.add_edge(0, 50);
    g.remove_edge(0, 50);
  }
  SnapshotStore store;
  SnapshotStore::Reader old_reader = store.make_reader();
  SnapshotStore::Reader reader = store.make_reader();
  store.publish(g);
  std::optional<SnapshotStore::Pin> held;
  const auto capacity_words = [](std::size_t n) {
    return std::bit_ceil(std::max<std::size_t>(1, (n + 63) / 64));
  };
  std::size_t patched_doublings = 0;
  while (g.num_nodes() < 600) {
    held.reset();
    held.emplace(old_reader.pin());
    const std::size_t words_before = capacity_words(g.num_nodes());
    for (int j = 0; j < 7; ++j) {
      const NodeId v = g.add_node();
      // Ranks below num_alive() - 1 skip v, the highest alive id.
      g.add_edge(v, g.kth_alive(static_cast<std::size_t>(
                        rng.below(g.num_alive() - 1))));
    }
    g.delete_node(
        g.kth_alive(static_cast<std::size_t>(rng.below(g.num_alive()))));
    const std::size_t patched_before = store.patched_publishes();
    store.publish(g);
    const SnapshotStore::Pin pin = reader.pin();
    expect_patched_equals_full(pin->view(), g);
    if (capacity_words(g.num_nodes()) != words_before &&
        store.patched_publishes() > patched_before) {
      ++patched_doublings;
    }
  }
  EXPECT_GT(store.live_snapshots(), 1u);  // the old epoch stayed pinned
  return patched_doublings;
}

TEST(FlatViewPatch, RecycledSnapshotPatchesAcrossCapacityDoublings) {
  EXPECT_EQ(patched_doublings(0), 3u);  // past 128, 256 and 512 ids
}

TEST(FlatViewPatch, RecycledSnapshotPatchesWhateverTheStartLogLength) {
  // A compaction keeps the newer half of the touched log, so wherever
  // the start log puts the compactions, a snapshot synced a few
  // publishes back still patches across every doubling.
  for (std::size_t pad = 0; pad < 64; ++pad) {
    EXPECT_EQ(patched_doublings(pad), 3u) << "pad " << pad;
  }
}

}  // namespace
}  // namespace dash::graph
