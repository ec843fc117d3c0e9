#include "graph/snapshot_store.h"

#include <algorithm>

#include "graph/dynamic_connectivity.h"
#include "graph/graph.h"
#include "util/check.h"

namespace dash::graph {

// Why the pin protocol is safe (single writer W, any readers):
//
//   W: ... build snapshot S_e ... current_ = &S_e (seq_cst);
//      epoch_ = e (release); retire S_{e-1}; scan pins (seq_cst loads);
//      free retired S_f iff f < min advertised pin
//   R: e = epoch_ (acquire); slot = e (seq_cst);
//      S = current_ (seq_cst); accept iff S->epoch == e, else retry
//
// (1) R only dereferences snapshots of epoch >= e: epoch_ == e is
//     store-released after current_ points at S_e, so R's later
//     current_ load (same variable, coherence) returns S_e or newer.
// (2) A scan that frees S_f either sees R's slot value e (then f < e
//     and S_f is not what R holds, by (1)) or is seq_cst-ordered
//     before R's slot store; in that case W's current_ store that
//     retired S_f is also ordered before R's current_ load, so R's
//     load returns a snapshot newer than S_f -- again not S_f.
// Either way no reader ever touches freed memory, and a reader that
// loses the race against a concurrent publish simply retries (its
// validation "S->epoch == e" fails because S is newer).

std::optional<std::uint32_t> Snapshot::distance(
    NodeId u, NodeId v, TraversalScratch& scratch) const {
  if (!alive(u) || !alive(v)) return std::nullopt;
  const std::uint32_t d = bfs_distance(view_, u, v, scratch);
  if (d == kUnreachable) return std::nullopt;
  return d;
}

namespace {

/// Carry `comps` forward over a patched refresh of `view` in whose
/// window the partition only lost members: survivors keep their
/// labels, and each id that died leaves its component. False (with
/// `comps` partly edited) when the window grew the id space or emptied
/// a component; the caller then labels in full.
bool drop_dead_labels(const FlatView& view, Components& comps) {
  if (view.num_nodes() != comps.label.size()) return false;
  for (NodeId v : view.last_refresh_died()) {
    std::uint32_t& label = comps.label[v];
    DASH_DCHECK(label != kInvalidComponent);
    if (--comps.sizes[label] == 0) return false;
    label = kInvalidComponent;
  }
  return true;
}

}  // namespace

SnapshotStore::~SnapshotStore() = default;

std::uint64_t SnapshotStore::publish(const Graph& g,
                                     const DynamicConnectivity* tracker) {
  std::unique_ptr<Snapshot> next;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      next = std::move(free_.back());
      free_.pop_back();
    }
  }
  if (!next) next.reset(new Snapshot());

  const std::uint64_t e = epoch_.load(std::memory_order_relaxed) + 1;
  next->epoch_ = e;
  // Recycled snapshot buffers still carry the CSR of the epoch they last
  // published, so refresh() patches forward from that state instead of
  // paying a full O(n + slab) rebuild every publish.
  const std::size_t fulls_before = next->view_.full_rebuilds();
  const std::size_t touched_before = next->view_.vertices_patched();
  next->view_.refresh(g);
  const bool patched = next->view_.full_rebuilds() == fulls_before;
  if (patched) {
    ++patched_publishes_;
    touched_vertices_ += next->view_.vertices_patched() - touched_before;
  } else {
    ++full_publishes_;
  }
  // The labels are those of the epoch this buffer last published, and
  // the patch just covered exactly the window since then.
  const std::uint64_t partition =
      tracker != nullptr ? tracker->partition_changes() : 0;
  const bool labels_carried =
      patched && tracker != nullptr && next->labels_tracker_ == tracker &&
      next->labels_partition_ == partition && !tracker->rescan_pending() &&
      drop_dead_labels(next->view_, next->comps_);
  if (!labels_carried) {
    connected_components(next->view_, scratch_, next->comps_);
    ++full_labellings_;
  }
  next->labels_tracker_ = tracker;
  next->labels_partition_ = partition;

  // Publication order matters: snapshot pointer first, epoch second
  // (see the proof sketch above).
  current_.store(next.get(), std::memory_order_seq_cst);
  epoch_.store(e, std::memory_order_release);

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (current_owned_) retired_.push_back(std::move(current_owned_));
    current_owned_ = std::move(next);
    reclaim_locked();
  }
  return e;
}

void SnapshotStore::reclaim_locked() {
  std::uint64_t min_pinned = kNoEpoch;
  for (const auto& slot : slots_) {
    min_pinned =
        std::min(min_pinned, slot->pinned.load(std::memory_order_seq_cst));
  }
  auto keep = retired_.begin();
  for (auto it = retired_.begin(); it != retired_.end(); ++it) {
    if ((*it)->epoch_ < min_pinned) {
      free_.push_back(std::move(*it));
    } else {
      *keep++ = std::move(*it);
    }
  }
  retired_.erase(keep, retired_.end());
}

SnapshotStore::Reader SnapshotStore::make_reader() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& slot : slots_) {
    if (!slot->in_use.load(std::memory_order_relaxed)) {
      slot->in_use.store(true, std::memory_order_relaxed);
      slot->pinned.store(kNoEpoch, std::memory_order_relaxed);
      return Reader(this, slot.get());
    }
  }
  slots_.push_back(std::make_unique<Slot>());
  slots_.back()->in_use.store(true, std::memory_order_relaxed);
  return Reader(this, slots_.back().get());
}

std::size_t SnapshotStore::live_snapshots() const {
  std::lock_guard<std::mutex> lock(mu_);
  return (current_owned_ ? 1 : 0) + retired_.size();
}

std::size_t SnapshotStore::retired_pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retired_.size();
}

std::size_t SnapshotStore::reader_slots() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

// ---- Pin / Reader ----------------------------------------------------------

void SnapshotStore::Pin::release() {
  if (slot_ != nullptr) {
    slot_->pinned.store(SnapshotStore::kNoEpoch, std::memory_order_release);
    slot_ = nullptr;
    snap_ = nullptr;
  }
}

SnapshotStore::Pin& SnapshotStore::Pin::operator=(Pin&& other) noexcept {
  if (this != &other) {
    release();
    slot_ = other.slot_;
    snap_ = other.snap_;
    other.slot_ = nullptr;
    other.snap_ = nullptr;
  }
  return *this;
}

SnapshotStore::Pin SnapshotStore::Reader::pin() {
  DASH_CHECK_MSG(slot_ != nullptr, "pin() on a moved-from Reader");
  DASH_CHECK_MSG(slot_->pinned.load(std::memory_order_relaxed) == kNoEpoch,
                 "one Pin at a time per Reader");
  for (;;) {
    const std::uint64_t e = store_->epoch_.load(std::memory_order_acquire);
    DASH_CHECK_MSG(e != 0, "pin() before the first publish()");
    slot_->pinned.store(e, std::memory_order_seq_cst);
    const Snapshot* snap = store_->current_.load(std::memory_order_seq_cst);
    if (snap != nullptr && snap->epoch() == e) return Pin(slot_, snap);
    // A publish landed between the epoch load and the pin: advertise
    // the fresh epoch instead. (snap is newer than e here, so it is
    // protected by the very pin we advertised -- dereferencing its
    // epoch above was safe.)
    slot_->pinned.store(kNoEpoch, std::memory_order_seq_cst);
  }
}

void SnapshotStore::Reader::release() {
  if (slot_ != nullptr) {
    slot_->pinned.store(kNoEpoch, std::memory_order_release);
    slot_->in_use.store(false, std::memory_order_release);
    slot_ = nullptr;
    store_ = nullptr;
  }
}

SnapshotStore::Reader& SnapshotStore::Reader::operator=(
    Reader&& other) noexcept {
  if (this != &other) {
    release();
    store_ = other.store_;
    slot_ = other.slot_;
    other.store_ = nullptr;
    other.slot_ = nullptr;
  }
  return *this;
}

SnapshotStore::Reader::~Reader() { release(); }

}  // namespace dash::graph
