// serve_snapshot_property_test.cpp -- the serving path against fresh
// traversals of what it serves. After every publish, the pinned
// snapshot's labels must induce exactly the partition a fresh
// connected_components of the pinned view finds (same count, largest
// component and per-node sizes), and pin.distance must equal the
// single-source BFS distance for sampled pairs, disconnected and dead
// pairs included.
//
// Publishes carry a recycled snapshot's labels forward whenever the
// connectivity tracker vouches that the partition only lost members,
// so this is the differential that holds the carried labels to a full
// labelling. It runs every scenario phase type (trace: replays the
// events of the others and needs a file, so it is left out) under
// every registered healer: `none` supplies disconnections, emptied
// components and uncertified rounds that force full labellings, churn
// and join phases supply joins. One reader holds its pin across many
// publishes, so recycled snapshots patch forward over windows of
// several epochs. CI runs the suite again with
// DASH_VERIFY_CONNECTIVITY=1, which cross-checks every tracker answer.
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "api/api.h"
#include "api/serve.h"
#include "core/factory.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "test_helpers.h"

namespace dash::api {
namespace {

using graph::NodeId;

constexpr std::size_t kNodes = 48;
constexpr std::size_t kSources = 3;
constexpr std::size_t kTargetsPerSource = 6;

/// Checks the current snapshot after every publish. Registered after
/// serve(), so it runs after the publisher in every callback.
class SnapshotChecker final : public Observer {
 public:
  SnapshotChecker(ServeHandle& serve, std::uint64_t seed, std::string what)
      : reader_(serve.reader()), rng_(seed), what_(std::move(what)) {}

  std::string name() const override { return "snapshot-check"; }
  void on_round_end(const Network&, const RoundEvent&) override { check(); }
  void on_join(const Network&, const JoinEvent&) override { check(); }
  void on_finish(const Network&, Metrics&) override { check(); }

  std::size_t checks() const { return checks_; }

  /// The whole check, for any pinned snapshot.
  static void check_snapshot(const graph::Snapshot& snap,
                             dash::util::Rng& rng,
                             ServePin* pin_for_distance,
                             const std::string& what) {
    const graph::FlatView& view = snap.view();
    graph::TraversalScratch scratch;
    graph::Components fresh;
    graph::connected_components(view, scratch, fresh);

    ASSERT_EQ(snap.num_alive(), view.num_alive()) << what;
    ASSERT_EQ(snap.component_count(), fresh.count()) << what;
    ASSERT_EQ(snap.largest_component(), fresh.largest()) << what;

    // Each fresh component lies inside one label class (every member
    // is connected to its first member), the classes of distinct fresh
    // components differ, and dead ids carry no label: together, the
    // same partition.
    std::vector<NodeId> first(fresh.count(), graph::kInvalidNode);
    for (NodeId u : view.alive_set()) {
      const std::uint32_t c = fresh.label[u];
      if (first[c] == graph::kInvalidNode) first[c] = u;
      ASSERT_TRUE(snap.connected(first[c], u)) << what << " node " << u;
      ASSERT_EQ(snap.component_size(u), fresh.sizes[c])
          << what << " node " << u;
    }
    for (std::size_t a = 0; a < first.size(); ++a) {
      for (std::size_t b = a + 1; b < first.size(); ++b) {
        ASSERT_FALSE(snap.connected(first[a], first[b]))
            << what << " components " << a << " and " << b;
      }
    }
    for (NodeId v = 0; v < view.num_nodes(); ++v) {
      if (snap.alive(v)) continue;
      ASSERT_FALSE(snap.connected(v, v)) << what << " dead node " << v;
      ASSERT_EQ(snap.component_size(v), 0u) << what << " dead node " << v;
    }

    // Sampled distances, ids drawn over the whole id space so dead
    // endpoints come up too.
    graph::TraversalScratch reference;
    graph::TraversalScratch probe;
    for (std::size_t i = 0; i < kSources; ++i) {
      const auto u = static_cast<NodeId>(rng.below(view.num_nodes()));
      if (snap.alive(u)) graph::bfs_distances(view, u, reference);
      for (std::size_t j = 0; j < kTargetsPerSource; ++j) {
        const auto v = static_cast<NodeId>(rng.below(view.num_nodes()));
        std::optional<std::uint32_t> expect;
        if (snap.alive(u) && snap.alive(v) &&
            reference.distance(v) != graph::kUnreachable) {
          expect = reference.distance(v);
        }
        const std::optional<std::uint32_t> got =
            pin_for_distance != nullptr ? pin_for_distance->distance(u, v)
                                        : snap.distance(u, v, probe);
        ASSERT_EQ(got, expect) << what << " distance " << u << "-" << v;
        ASSERT_EQ(got.has_value(), snap.connected(u, v))
            << what << " torn read " << u << "-" << v;
      }
    }
  }

 private:
  void check() {
    ServePin pin = reader_.pin();
    check_snapshot(pin.snapshot(), rng_, &pin,
                   what_ + " epoch " + std::to_string(pin.epoch()));
    ++checks_;
  }

  ServeReader reader_;
  dash::util::Rng rng_;
  std::string what_;
  std::size_t checks_ = 0;
};

class ServeSnapshotProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(ServeSnapshotProperty, LabelsAndDistancesMatchFreshTraversals) {
  const std::string spec = GetParam();
  for (const std::string& healer : dash::testing::every_healer()) {
    const std::string what = spec + " / " + healer;
    dash::util::Rng rng(0x5E12u);
    Network net(graph::barabasi_albert(kNodes, 2, rng), healer, 3);
    ServeHandle& serve = net.serve();
    SnapshotChecker checker(serve, 17, what);
    net.add_observer(&checker);
    net.play(Scenario::parse(spec), 9);
    const graph::SnapshotStore& store = serve.store();
    EXPECT_EQ(checker.checks() + 1, store.epoch()) << what;
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPhaseTypes, ServeSnapshotProperty,
                         ::testing::ValuesIn(dash::testing::kEveryPhaseType),
                         dash::testing::spec_test_name);

TEST(ServeSnapshotPropertyExtras, HealerListCoversTheRegistry) {
  EXPECT_EQ(dash::testing::every_healer().size(),
            core::healer_registry().names().size());
}

TEST(ServeSnapshotPropertyExtras, CertifiedRoundsCarryLabelsForward) {
  // Pure DASH deletions are certified, so a publish labels in full only
  // when its CSR could not be patched either (a fresh buffer, or one
  // whose sync point the graph's touched log no longer retains).
  dash::util::Rng rng(4);
  Network net(graph::barabasi_albert(kNodes, 2, rng), "dash", 3);
  ServeHandle& serve = net.serve();
  net.play(Scenario::parse("strike:randomx30"), 9);
  const graph::SnapshotStore& store = serve.store();
  EXPECT_EQ(store.epoch(), 32u);
  EXPECT_EQ(store.full_labellings(), store.full_publishes());
  EXPECT_LE(store.full_labellings(), store.epoch() / 4);
}

TEST(ServeSnapshotPropertyExtras, LongHeldPinLetsRecycledSnapshotsSpanEpochs) {
  // While a reader holds one epoch, every later snapshot stays retired
  // but allocated; releasing the pin frees them all at once. The free
  // buffers are reused last-in first-out, so the next held pin, which
  // keeps the youngest ones pinned, makes the writer dig into older
  // buffers whose labels are several epochs stale and must be carried
  // forward over the whole window. Every publish is checked, and so is
  // each held snapshot after the writer moved on.
  for (const std::string& healer : {std::string("dash"),
                                    std::string("none")}) {
    dash::util::Rng rng(12);
    Network net(graph::barabasi_albert(kNodes, 2, rng), healer, 5);
    ServeHandle& serve = net.serve();
    SnapshotChecker checker(serve, 23, healer);
    net.add_observer(&checker);
    ServeReader holder = serve.reader();
    dash::util::Rng play_rng(31);
    dash::util::Rng check_rng(41);
    for (int round = 0; round < 4; ++round) {
      std::optional<ServePin> held(holder.pin());
      const std::uint64_t held_epoch = held->epoch();
      net.play(Scenario::parse("strike:randomx5"), play_rng);
      EXPECT_GE(serve.store().live_snapshots(), 6u) << healer;
      SnapshotChecker::check_snapshot(held->snapshot(), check_rng, &*held,
                                      healer + " held epoch " +
                                          std::to_string(held_epoch));
      held.reset();
      net.play(Scenario::parse("strike:randomx2"), play_rng);
      if (::testing::Test::HasFatalFailure()) return;
    }
    const graph::SnapshotStore& store = serve.store();
    EXPECT_EQ(checker.checks() + 1, store.epoch()) << healer;
    if (healer == "dash") {
      // Certified rounds only: labels are recomputed only alongside a
      // full CSR build.
      EXPECT_EQ(store.full_labellings(), store.full_publishes()) << healer;
      EXPECT_LT(store.full_labellings(), store.epoch() / 2) << healer;
    }
  }
}

}  // namespace
}  // namespace dash::api
