// serve.h -- the concurrent read path of api::Network: queries answered
// *while* churn and healing mutate the graph.
//
// Network::serve() attaches an engine-owned publisher observer that
// pushes an immutable graph::Snapshot (CSR view + component labels)
// into a graph::SnapshotStore after every round and join. Reader
// threads each hold a ServeReader and answer
//
//   connected(u, v)        O(1) from the pinned labels
//   distance(u, v)         one bidirectional BFS on the pinned CSR
//                          arrays, stopping where the searches meet
//   largest_component()    one pass over the pinned component sizes
//
// A publish patches the recycled snapshot forward: the CSR by the
// touched vertices, and the labels -- whenever the engine's
// connectivity tracker vouches that no component merged or split --
// by dropping the ids that died (graph/snapshot_store.h).
//
// Readers answer entirely from a pinned epoch -- no lock is taken on
// the read path, and the mutation thread never waits for readers
// (epoch-based reclamation keeps retired snapshots alive exactly as
// long as some reader pins them; see graph/snapshot_store.h).
//
//   api::Network net(graph::barabasi_albert(10000, 2, rng), "dash", 1);
//   api::ServeHandle& serve = net.serve();
//   std::thread reader([r = serve.reader()]() mutable {
//     while (!done) {
//       api::ServePin pin = r.pin();            // one consistent epoch
//       if (pin.connected(u, v)) { ... }
//       auto d = pin.distance(u, v);            // same epoch as above
//     }
//   });
//   net.play(api::Scenario::parse("churn:0.3,0.1x2000"), rng);  // serves live
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "api/observer.h"
#include "graph/snapshot_store.h"
#include "graph/traversal.h"

namespace dash::api {

class Network;

/// A pinned epoch: every query through one ServePin sees the same
/// frozen graph, so multi-query invariants (connected implies finite
/// distance, component sizes sum to alive count) hold exactly. Keep
/// pins short-lived -- a pinned epoch holds its snapshot's memory.
class ServePin {
 public:
  ServePin(ServePin&&) noexcept = default;
  ServePin& operator=(ServePin&&) noexcept = default;

  std::uint64_t epoch() const { return pin_->epoch(); }
  std::size_t alive() const { return pin_->num_alive(); }
  std::size_t component_count() const { return pin_->component_count(); }
  std::size_t largest_component() const { return pin_->largest_component(); }
  bool connected(graph::NodeId u, graph::NodeId v) const {
    return pin_->connected(u, v);
  }
  /// Bidirectional-BFS hop distance on the pinned snapshot; nullopt
  /// when dead or disconnected. Independent of the labels connected()
  /// reads, so `connected(u,v) == distance(u,v).has_value()` is a
  /// per-query torn-read cross-check (the serve bench's --verify mode).
  std::optional<std::uint32_t> distance(graph::NodeId u, graph::NodeId v) {
    return pin_->distance(u, v, *scratch_);
  }
  const graph::Snapshot& snapshot() const { return *pin_; }

 private:
  friend class ServeReader;
  ServePin(graph::SnapshotStore::Pin pin, graph::TraversalScratch* scratch)
      : pin_(std::move(pin)), scratch_(scratch) {}

  graph::SnapshotStore::Pin pin_;
  graph::TraversalScratch* scratch_;
};

/// One reader thread's handle: a reclamation slot plus a private BFS
/// scratch. Movable (hand it to the thread that will use it); use from
/// one thread at a time. Must not outlive the ServeHandle.
class ServeReader {
 public:
  ServeReader(ServeReader&&) noexcept = default;
  ServeReader& operator=(ServeReader&&) noexcept = default;

  /// Pin the latest published epoch for a batch of consistent queries.
  ServePin pin() { return ServePin(reader_.pin(), &scratch_); }

  // One-shot conveniences (pin + query + unpin).
  bool connected(graph::NodeId u, graph::NodeId v) {
    return pin().connected(u, v);
  }
  std::optional<std::uint32_t> distance(graph::NodeId u, graph::NodeId v) {
    return pin().distance(u, v);
  }
  std::size_t largest_component() { return pin().largest_component(); }
  std::size_t component_count() { return pin().component_count(); }
  std::uint64_t epoch() { return pin().epoch(); }

 private:
  friend class ServeHandle;
  explicit ServeReader(graph::SnapshotStore::Reader reader)
      : reader_(std::move(reader)) {}

  graph::SnapshotStore::Reader reader_;
  graph::TraversalScratch scratch_;
};

/// The serving engine attached to one Network. Owned by the Network
/// (Network::serve() returns a reference); readers may be created from
/// any thread. publish() runs on the mutation thread only -- normally
/// the internal observer calls it, but replay/batch drivers may force
/// an extra publish between events.
class ServeHandle {
 public:
  ServeHandle(const ServeHandle&) = delete;
  ServeHandle& operator=(const ServeHandle&) = delete;

  /// Latest published epoch (0 never happens: serve() publishes the
  /// initial state on attach).
  std::uint64_t epoch() const { return store_.epoch(); }

  /// Register a reader slot (any thread; brief lock).
  ServeReader reader() { return ServeReader(store_.make_reader()); }

  /// Publish the network's current state now. Mutation thread only.
  std::uint64_t publish();

  const graph::SnapshotStore& store() const { return store_; }

 private:
  friend class Network;

  /// The pipeline stage that publishes after mutation events. A plain
  /// member (not engine-owned) so handle and observer share lifetime.
  class Publisher final : public Observer {
   public:
    explicit Publisher(ServeHandle& handle) : handle_(handle) {}
    std::string name() const override { return "serve"; }
    void on_attach(const Network& net) override;
    void on_round_end(const Network& net, const RoundEvent& ev) override;
    void on_join(const Network& net, const JoinEvent& ev) override;
    void on_finish(const Network& net, Metrics& out) override;

   private:
    ServeHandle& handle_;
  };

  explicit ServeHandle(Network& net);

  Network& net_;
  graph::SnapshotStore store_;
  Publisher publisher_;
};

}  // namespace dash::api
