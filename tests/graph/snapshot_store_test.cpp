// snapshot_store_test.cpp -- epoch publication, pin-based reclamation,
// buffer recycling, and a concurrent publish/read stress with the
// label-vs-BFS torn-read cross-check.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "graph/dynamic_connectivity.h"
#include "graph/generators.h"
#include "graph/snapshot_store.h"
#include "graph/traversal.h"
#include "util/rng.h"

namespace dash::graph {
namespace {

using dash::util::Rng;

Graph path_graph(std::size_t n) {
  Graph g(n);
  for (NodeId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g;
}

TEST(SnapshotStore, EpochsAdvancePerPublish) {
  Graph g = path_graph(8);
  SnapshotStore store;
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_EQ(store.publish(g), 1u);
  EXPECT_EQ(store.publish(g), 2u);
  EXPECT_EQ(store.epoch(), 2u);
}

TEST(SnapshotStore, SnapshotAnswersFromPublishTimeState) {
  Graph g = path_graph(6);
  SnapshotStore store;
  store.publish(g);

  SnapshotStore::Reader reader = store.make_reader();
  TraversalScratch scratch;
  {
    SnapshotStore::Pin pin = reader.pin();
    EXPECT_EQ(pin->epoch(), 1u);
    EXPECT_EQ(pin->num_alive(), 6u);
    EXPECT_TRUE(pin->connected(0, 5));
    EXPECT_EQ(pin->distance(0, 5, scratch), std::uint32_t{5});

    // Mutate after publish: the pinned snapshot must not notice.
    g.delete_node(3);
    EXPECT_TRUE(pin->connected(0, 5));
    EXPECT_TRUE(pin->alive(3));
  }

  // The next publish sees the cut.
  store.publish(g);
  SnapshotStore::Pin fresh = reader.pin();
  EXPECT_EQ(fresh->epoch(), 2u);
  EXPECT_FALSE(fresh->connected(0, 5));
  EXPECT_FALSE(fresh->alive(3));
  EXPECT_FALSE(fresh->distance(0, 5, scratch).has_value());
  EXPECT_EQ(fresh->component_count(), 2u);
  EXPECT_EQ(fresh->largest_component(), 3u);
}

TEST(SnapshotStore, PinBlocksReclamationUntilReleased) {
  Graph g = path_graph(4);
  SnapshotStore store;
  store.publish(g);

  SnapshotStore::Reader reader = store.make_reader();
  {
    SnapshotStore::Pin pin = reader.pin();
    EXPECT_EQ(pin->epoch(), 1u);
    store.publish(g);  // retires epoch 1, but the pin protects it
    EXPECT_EQ(store.retired_pending(), 1u);
    EXPECT_EQ(store.live_snapshots(), 2u);
    EXPECT_EQ(pin->epoch(), 1u);  // still readable
  }
  // Unpinned now; the next publish reclaims it.
  store.publish(g);
  EXPECT_EQ(store.retired_pending(), 0u);
  EXPECT_EQ(store.live_snapshots(), 1u);
}

TEST(SnapshotStore, FreedSnapshotsAreRecycledNotReallocated) {
  Graph g = path_graph(16);
  SnapshotStore store;
  store.publish(g);
  // No pins: every publish retires the predecessor and immediately
  // frees it, so the allocated set stays at one live snapshot (plus
  // the recycled buffer the next publish reuses).
  for (int i = 0; i < 50; ++i) store.publish(g);
  EXPECT_EQ(store.live_snapshots(), 1u);
  EXPECT_EQ(store.retired_pending(), 0u);
}

TEST(SnapshotStore, ReaderSlotsAreRecycled) {
  Graph g = path_graph(4);
  SnapshotStore store;
  store.publish(g);
  { SnapshotStore::Reader r = store.make_reader(); }
  { SnapshotStore::Reader r = store.make_reader(); }
  { SnapshotStore::Reader r = store.make_reader(); }
  EXPECT_EQ(store.reader_slots(), 1u);
  SnapshotStore::Reader a = store.make_reader();
  SnapshotStore::Reader b = store.make_reader();
  EXPECT_EQ(store.reader_slots(), 2u);
}

TEST(SnapshotStore, ConcurrentPublishAndReadStress) {
  // One writer republishing a mutating graph, several readers pinning
  // and cross-checking label connectivity against BFS reachability on
  // every pin. Any disagreement within one pin is a torn read.
  Rng rng(7);
  Graph g = barabasi_albert(256, 2, rng);
  SnapshotStore store;
  store.publish(g);

  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> torn{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    SnapshotStore::Reader reader = store.make_reader();
    threads.emplace_back(
        [&, r, reader = std::move(reader)]() mutable {
          TraversalScratch scratch;
          Rng pick(1000 + static_cast<std::uint64_t>(r));
          while (!stop.load(std::memory_order_relaxed)) {
            SnapshotStore::Pin pin = reader.pin();
            const FlatView& view = pin->view();
            if (view.num_alive() < 2) continue;
            const NodeId u = view.kth_alive(
                static_cast<std::size_t>(pick.below(view.num_alive())));
            const NodeId v = view.kth_alive(
                static_cast<std::size_t>(pick.below(view.num_alive())));
            const bool conn = pin->connected(u, v);
            const bool reach = pin->distance(u, v, scratch).has_value();
            if (conn != reach) torn.fetch_add(1);
          }
        });
  }

  Rng mut(99);
  for (int i = 0; i < 400; ++i) {
    const NodeId victim = static_cast<NodeId>(mut.below(g.num_nodes()));
    if (g.alive(victim) && g.num_alive() > 8) {
      g.delete_node(victim);
    } else {
      const NodeId fresh = g.add_node();
      const NodeId anchor = static_cast<NodeId>(mut.below(fresh));
      if (g.alive(anchor)) g.add_edge(fresh, anchor);
    }
    store.publish(g);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(store.epoch(), 401u);
  // All pins released: one more publish sweeps the retired list.
  store.publish(g);
  EXPECT_EQ(store.retired_pending(), 0u);
}

TEST(SnapshotStore, RecycledSnapshotsPatchForwardNotRebuild) {
  // With no pins held, publishes ping-pong between two buffers; each
  // recycled buffer carries the CSR of its last epoch and only has to
  // patch two epochs' worth of touched vertices forward.
  Rng rng(11);
  Graph g = barabasi_albert(512, 2, rng);
  SnapshotStore store;
  store.publish(g);  // first publish on a fresh buffer: full rebuild
  EXPECT_EQ(store.full_publishes(), 1u);

  SnapshotStore::Reader reader = store.make_reader();
  TraversalScratch scratch;
  std::vector<NodeId> alive = g.alive_nodes();
  for (int i = 0; i < 40; ++i) {
    const std::size_t at = static_cast<std::size_t>(rng.below(alive.size()));
    g.delete_node(alive[at]);
    alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(at));
    store.publish(g);

    // The published snapshot answers from the patched CSR; cross-check
    // a pair against a BFS on the live graph.
    SnapshotStore::Pin pin = reader.pin();
    EXPECT_EQ(pin->num_alive(), alive.size());
    const NodeId u = alive[static_cast<std::size_t>(rng.below(alive.size()))];
    const NodeId v = alive[static_cast<std::size_t>(rng.below(alive.size()))];
    const auto via_snapshot = pin->distance(u, v, scratch);
    const std::uint32_t direct = bfs_distance(g.flat_view(), u, v, scratch);
    if (direct == kUnreachable) {
      EXPECT_FALSE(via_snapshot.has_value());
    } else {
      ASSERT_TRUE(via_snapshot.has_value());
      EXPECT_EQ(*via_snapshot, direct);
    }
  }
  // The second publish warms the second buffer (full); from the third
  // on every publish patches a recycled snapshot forward.
  EXPECT_EQ(store.full_publishes(), 2u);
  EXPECT_EQ(store.patched_publishes(), 39u);
  EXPECT_GT(store.touched_vertices(), 0u);
}

/// Fresh labelling of `snap`'s own view, compared as partitions.
::testing::AssertionResult labels_match_view(const Snapshot& snap) {
  TraversalScratch scratch;
  Components fresh;
  connected_components(snap.view(), scratch, fresh);
  if (snap.component_count() != fresh.count()) {
    return ::testing::AssertionFailure()
           << "count " << snap.component_count() << " != " << fresh.count();
  }
  std::vector<NodeId> first(fresh.count(), kInvalidNode);
  for (NodeId v = 0; v < snap.view().num_nodes(); ++v) {
    const std::uint32_t c = fresh.label[v];
    if (c == kInvalidComponent) {
      if (snap.component_size(v) != 0) {
        return ::testing::AssertionFailure() << "dead " << v << " labelled";
      }
      continue;
    }
    if (first[c] == kInvalidNode) first[c] = v;
    if (!snap.connected(first[c], v) ||
        snap.component_size(v) != fresh.sizes[c]) {
      return ::testing::AssertionFailure() << "node " << v << " mislabelled";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(SnapshotStore, TrackerLetsCertifiedPublishesKeepLabels) {
  // Triangle fan: deleting any rim node leaves its neighbours adjacent,
  // so every deletion is certified and no publish after the two
  // buffers' first ones relabels.
  Graph g = path_graph(10);
  for (NodeId v = 0; v + 2 < 10; ++v) g.add_edge(v, v + 2);
  DynamicConnectivity dc(g);
  SnapshotStore store;
  store.publish(g, &dc);
  store.publish(g, &dc);
  EXPECT_EQ(store.full_labellings(), 2u);

  SnapshotStore::Reader reader = store.make_reader();
  for (NodeId v : {NodeId{0}, NodeId{9}, NodeId{4}}) {
    const auto survivors = g.delete_node(v);
    dc.node_removed(v, survivors, /*may_split=*/false);
    store.publish(g, &dc);
    SnapshotStore::Pin pin = reader.pin();
    EXPECT_TRUE(labels_match_view(*pin)) << "after deleting " << v;
    EXPECT_EQ(pin->largest_component(), g.num_alive());
  }
  EXPECT_EQ(store.full_labellings(), 2u);

  // Publishes with nothing new in between: each buffer's refresh has
  // no deaths to replay, so the labels stand as they are (a stale died
  // list from the previous window would shrink components twice).
  for (int i = 0; i < 3; ++i) {
    store.publish(g, &dc);
    SnapshotStore::Pin pin = reader.pin();
    EXPECT_TRUE(labels_match_view(*pin)) << "idle publish " << i;
    EXPECT_EQ(pin->largest_component(), g.num_alive());
  }
  EXPECT_EQ(store.full_labellings(), 2u);

  // Without the tracker the same store labels in full.
  store.publish(g);
  EXPECT_EQ(store.full_labellings(), 3u);
}

TEST(SnapshotStore, PartitionChangesForceFullLabelling) {
  Graph g = path_graph(6);
  DynamicConnectivity dc(g);
  SnapshotStore store;
  store.publish(g, &dc);
  store.publish(g, &dc);
  SnapshotStore::Reader reader = store.make_reader();
  const auto publish_and_check = [&](const char* what) {
    store.publish(g, &dc);
    SnapshotStore::Pin pin = reader.pin();
    EXPECT_TRUE(labels_match_view(*pin)) << what;
  };

  // A pending re-scan (uncertified cut) relabels even before anyone
  // queries the tracker.
  std::size_t before = store.full_labellings();
  const auto cut = g.delete_node(2);
  dc.node_removed(2, cut, /*may_split=*/true);
  publish_and_check("uncertified cut");
  EXPECT_EQ(store.full_labellings(), before + 1);

  // The flush then moves the counter: the other buffer relabels too.
  EXPECT_EQ(dc.component_count(), 2u);
  before = store.full_labellings();
  publish_and_check("after flush");
  EXPECT_EQ(store.full_labellings(), before + 1);

  // A join and a merging edge.
  const NodeId v = g.add_node();
  dc.node_added(v);
  g.add_edge(v, 0);
  dc.edge_added(v, 0);
  before = store.full_labellings();
  publish_and_check("join");
  EXPECT_EQ(store.full_labellings(), before + 1);
  publish_and_check("join, second buffer");
  EXPECT_EQ(store.full_labellings(), before + 2);

  // Deleting an isolated node empties its component.
  const NodeId lone = g.add_node();
  dc.node_added(lone);
  publish_and_check("lone join");
  publish_and_check("lone join, second buffer");
  before = store.full_labellings();
  dc.node_removed(lone, g.delete_node(lone), /*may_split=*/false);
  publish_and_check("emptied component");
  EXPECT_EQ(store.full_labellings(), before + 1);
}

}  // namespace
}  // namespace dash::graph
