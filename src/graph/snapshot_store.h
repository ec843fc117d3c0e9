// snapshot_store.h -- epoch-published immutable CSR snapshots for
// concurrent serving: the mutation thread publishes a frozen FlatView
// (plus its component labelling) at epoch N while the live Graph keeps
// mutating toward N+1, and any number of reader threads answer
// connectivity/distance queries from a *pinned* epoch without taking a
// lock on the read path.
//
// A publish costs what changed since the recycled snapshot last
// published, not the graph's size, whenever the engine's
// DynamicConnectivity tracker can vouch that the partition only lost
// deleted members in that window: the CSR is delta-patched, and the
// labels are carried forward by invalidating the ids that died. Any
// merge, join, re-scan or emptied component (and every publish without
// a tracker) labels in full instead.
//
// Reclamation is epoch-based: each reader owns a cheap per-thread slot
// holding the epoch it has pinned (or kNoEpoch). publish() retires the
// previous snapshot and frees every retired snapshot whose epoch is
// below the minimum pinned epoch -- so a snapshot's buffers live
// exactly as long as some reader can still see it, and freed snapshots
// are recycled (their FlatView/Components buffers are reused by later
// publishes, the same buffer-reuse discipline FlatView::rebuild has).
//
// Thread contract:
//   * publish() is mutation-thread only (one writer).
//   * make_reader() may be called from any thread (brief registration
//     lock); each SnapshotStore::Reader then belongs to one thread.
//   * Reader::pin()/unpin are lock-free: one seq_cst store + loads.
//   * Readers and Pins must not outlive the store.
//
// The pin protocol closes the publish/pin race without dereferencing
// unpinned memory: a reader first advertises the epoch it read, then
// re-loads the current snapshot and retries unless the snapshot it got
// carries exactly that epoch. The writer orders its publish as "store
// snapshot pointer, then advance the epoch counter", so an advertised
// epoch always protects the snapshot that carries it (see the proof
// sketch in snapshot_store.cpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "graph/flat_view.h"
#include "graph/traversal.h"

namespace dash::graph {

class DynamicConnectivity;
class Graph;
class SnapshotStore;

/// One published epoch: a frozen CSR view of the alive subgraph plus
/// its component labelling, settled at publish time (in full, or
/// carried forward from the recycled buffer's previous epoch), so
/// connected() is O(1) per query. Labels are dense but in no
/// particular order. Immutable after publication; safe to read from any
/// number of threads while pinned.
class Snapshot {
 public:
  std::uint64_t epoch() const { return epoch_; }
  const FlatView& view() const { return view_; }

  std::size_t num_alive() const { return view_.num_alive(); }
  std::size_t component_count() const { return comps_.count(); }
  std::size_t largest_component() const { return comps_.largest(); }
  /// Size of v's component; 0 when v is dead or out of the snapshot's
  /// id range. O(1) via the labels.
  std::size_t component_size(NodeId v) const {
    if (v >= comps_.label.size()) return 0;
    const std::uint32_t l = comps_.label[v];
    return l == kInvalidComponent ? 0 : comps_.sizes[l];
  }

  /// True when v is alive in this snapshot; false past its id range.
  /// One bit test on the view's alive set -- deliberately independent
  /// of the component labels, so label-based and BFS-based answers
  /// cross-check each other (the serve bench's torn-read detector).
  bool alive(NodeId v) const { return view_.alive(v); }

  /// Same component in this snapshot? O(1) via the labels; false when
  /// either endpoint is dead or out of the snapshot's id range.
  bool connected(NodeId u, NodeId v) const {
    if (u >= comps_.label.size() || v >= comps_.label.size()) return false;
    const std::uint32_t lu = comps_.label[u];
    return lu != kInvalidComponent && lu == comps_.label[v];
  }

  /// Hop distance via a bidirectional BFS on the snapshot
  /// (caller-owned scratch; see graph::bfs_distance); nullopt when
  /// either endpoint is dead/out-of-range or the two are disconnected.
  /// Answers purely from the CSR arrays -- never from the labels -- so
  /// it doubles as the verify side of the connected() cross-check.
  std::optional<std::uint32_t> distance(NodeId u, NodeId v,
                                        TraversalScratch& scratch) const;

 private:
  friend class SnapshotStore;
  std::uint64_t epoch_ = 0;
  FlatView view_;
  Components comps_;
  /// Tracker and its partition_changes() when comps_ was last settled;
  /// null when that publish had no tracker.
  const DynamicConnectivity* labels_tracker_ = nullptr;
  std::uint64_t labels_partition_ = 0;
};

/// Publishes snapshots and reclaims retired ones once unpinned.
class SnapshotStore {
 public:
  /// A reader slot never pins anything: kNoEpoch orders above every
  /// real epoch, so idle slots are invisible to reclamation.
  static constexpr std::uint64_t kNoEpoch =
      std::numeric_limits<std::uint64_t>::max();

  SnapshotStore() = default;
  ~SnapshotStore();
  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  class Pin;
  class Reader;

  /// Build and publish a snapshot of g's current alive subgraph as the
  /// next epoch, retire the previous snapshot, and free every retired
  /// snapshot no reader pins. Mutation thread only. Returns the new
  /// epoch (first publish returns 1).
  ///
  /// `tracker`, when given, must be the tracker that has observed every
  /// mutation of g (api::Network's). A recycled snapshot then keeps its
  /// labels, minus the ids that died, when all of these hold: the
  /// tracker's partition_changes() has not moved since that snapshot
  /// was labelled, its CSR refresh was a patch, no re-scan is pending,
  /// and no component empties. Otherwise, and always without a
  /// tracker, the publish labels in full.
  std::uint64_t publish(const Graph& g,
                        const DynamicConnectivity* tracker = nullptr);

  /// Epoch of the most recent publish; 0 before the first.
  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Register (or recycle) a reader slot. Any thread; brief lock. The
  /// returned Reader must be used by one thread at a time and must not
  /// outlive the store.
  Reader make_reader();

  // ---- diagnostics (test hooks; take the registration lock) ----------

  /// Snapshots currently allocated and visible to some reader: the
  /// published one plus retired-but-still-pinned ones.
  std::size_t live_snapshots() const;
  /// Retired snapshots whose memory has not been reclaimed yet.
  std::size_t retired_pending() const;
  /// Registered reader slots (including recycled-but-idle ones).
  std::size_t reader_slots() const;

  // ---- publish telemetry (mutation thread only) ----------------------

  /// Publishes that paid a full O(n + slab) CSR rebuild (first use of a
  /// snapshot buffer, or churn past FlatView::kPatchFractionLimit).
  std::size_t full_publishes() const { return full_publishes_; }
  /// Publishes that delta-patched a recycled snapshot's CSR forward.
  std::size_t patched_publishes() const { return patched_publishes_; }
  /// Distinct vertices re-mirrored across all patched publishes.
  std::size_t touched_vertices() const { return touched_vertices_; }
  /// Publishes that labelled components in full; the rest carried a
  /// recycled snapshot's labels forward.
  std::size_t full_labellings() const { return full_labellings_; }

 private:
  struct Slot {
    std::atomic<std::uint64_t> pinned{kNoEpoch};
    std::atomic<bool> in_use{false};
  };

  /// Free every retired snapshot with epoch < min pinned epoch; freed
  /// snapshots park in free_ for buffer reuse. Called under mu_.
  void reclaim_locked();

  std::atomic<const Snapshot*> current_{nullptr};
  std::atomic<std::uint64_t> epoch_{0};

  /// Writer-thread state: ownership of the currently published
  /// snapshot and the scratch used for publish-time labelling.
  std::unique_ptr<Snapshot> current_owned_;
  TraversalScratch scratch_;
  std::size_t full_publishes_ = 0;
  std::size_t patched_publishes_ = 0;
  std::size_t touched_vertices_ = 0;
  std::size_t full_labellings_ = 0;

  /// Guards slots_/retired_/free_ -- registration and reclamation only,
  /// never the read path.
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::unique_ptr<Snapshot>> retired_;
  std::vector<std::unique_ptr<Snapshot>> free_;
};

/// RAII pin: while alive, the pinned snapshot (and every snapshot of a
/// later epoch) cannot be reclaimed. Cheap to construct and destroy --
/// the serve read path takes one per query batch.
class SnapshotStore::Pin {
 public:
  Pin(Pin&& other) noexcept
      : slot_(other.slot_), snap_(other.snap_) {
    other.slot_ = nullptr;
    other.snap_ = nullptr;
  }
  Pin& operator=(Pin&& other) noexcept;
  Pin(const Pin&) = delete;
  Pin& operator=(const Pin&) = delete;
  ~Pin() { release(); }

  const Snapshot& operator*() const { return *snap_; }
  const Snapshot* operator->() const { return snap_; }
  const Snapshot& snapshot() const { return *snap_; }

 private:
  friend class SnapshotStore::Reader;
  Pin(Slot* slot, const Snapshot* snap) : slot_(slot), snap_(snap) {}
  void release();

  Slot* slot_ = nullptr;
  const Snapshot* snap_ = nullptr;
};

/// One thread's handle into the store. Movable; not copyable. At most
/// one Pin may be outstanding per Reader.
class SnapshotStore::Reader {
 public:
  Reader(Reader&& other) noexcept
      : store_(other.store_), slot_(other.slot_) {
    other.store_ = nullptr;
    other.slot_ = nullptr;
  }
  Reader& operator=(Reader&& other) noexcept;
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;
  ~Reader();

  /// Pin the latest published epoch. Lock-free; retries only while a
  /// publish lands concurrently. The store must have published at
  /// least once.
  Pin pin();

 private:
  friend class SnapshotStore;
  Reader(SnapshotStore* store, Slot* slot) : store_(store), slot_(slot) {}
  void release();

  SnapshotStore* store_ = nullptr;
  Slot* slot_ = nullptr;
};

}  // namespace dash::graph
