#include "analysis/stretch.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/check.h"

namespace dash::analysis {

using graph::FlatView;
using graph::Graph;
using graph::kUnreachable;
using graph::NodeId;

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kWave = 64;  ///< sources per bit-parallel wave
}  // namespace

StretchTracker::StretchTracker(const Graph& original)
    : n_(original.num_nodes()),
      original_(graph::all_pairs_distances(original)) {
  DASH_CHECK_MSG(graph::is_connected(original),
                 "stretch baseline must be connected");
  for (const std::uint32_t d : original_) {
    if (d != kUnreachable && d > diameter0_) diameter0_ = d;
  }
}

// One wave advances 64 BFS sources simultaneously: every node carries a
// 64-bit mask of the wave's sources that reached it, and one pass over
// the CSR per level ORs the frontier masks across each node's
// neighbors -- the whole wave costs O((n + m) * diameter) word ops
// instead of 64 separate traversals. A pair's contribution is recorded
// the round its bit first arrives: the healed distance is the round
// number, the original distance comes from the (symmetric) time-0 APSP
// row of the *target*, read at ascending source offsets.
void StretchTracker::wave_partials(const FlatView& view,
                                   const std::vector<NodeId>& alive,
                                   std::size_t idx0, std::size_t count,
                                   SourcePartial* out) const {
  SampleWorkspace& ws = ws_;
  const std::size_t stride = diameter0_ + 1;
  ws.reached.assign(n_, 0);
  ws.frontier.assign(n_, 0);
  ws.next.resize(n_);         // alive entries overwritten every round
  ws.prefix_mask.resize(n_);  // alive entries overwritten below
  ws.sum_d.assign(count * stride, 0);
  ws.max_d.assign(count * stride, 0);

  // Pairs are unordered: credit each to its smaller-id endpoint, i.e.
  // target v only accumulates sources with id < v. Sources are an
  // ascending slice of the ascending alive list, so the eligible bits
  // of every target form a prefix, computed in one merge-like sweep.
  {
    std::size_t k = 0;
    for (const NodeId v : alive) {
      while (k < count && alive[idx0 + k] < v) ++k;
      ws.prefix_mask[v] =
          k >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << k) - 1;
    }
  }
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId s = alive[idx0 + i];
    ws.reached[s] = ws.frontier[s] = std::uint64_t{1} << i;
  }

  auto* reached = ws.reached.data();
  auto* prefix = ws.prefix_mask.data();
  std::uint32_t depth = 0;
  bool active = true;
  while (active) {
    active = false;
    ++depth;
    const auto* frontier = ws.frontier.data();
    auto* next = ws.next.data();
    for (const NodeId v : alive) {
      std::uint64_t gather = 0;
      for (const NodeId u : view.neighbors(v)) gather |= frontier[u];
      const std::uint64_t fresh = gather & ~reached[v];
      next[v] = fresh;
      if (fresh == 0) continue;
      active = true;
      reached[v] |= fresh;
      std::uint64_t bits = fresh & prefix[v];
      if (bits == 0) continue;
      const std::uint32_t* base_row =
          original_.data() + std::size_t{v} * n_;
      do {
        const auto i = static_cast<unsigned>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::uint32_t base = base_row[alive[idx0 + i]];
        DASH_CHECK(base != 0 && base <= diameter0_);
        ws.sum_d[i * stride + base] += depth;
        std::uint32_t& m = ws.max_d[i * stride + base];
        if (depth > m) m = depth;
      } while (bits != 0);
    }
    std::swap(ws.frontier, ws.next);
  }

  // A source is disconnected iff its bit failed to reach some alive
  // node; fold the per-base books of the complete ones.
  std::uint64_t all = count >= 64 ? ~std::uint64_t{0}
                                  : (std::uint64_t{1} << count) - 1;
  for (const NodeId v : alive) all &= reached[v];
  for (std::size_t i = 0; i < count; ++i) {
    SourcePartial p;
    if (((all >> i) & 1) == 0) {
      p.disconnected = true;
    } else {
      const auto* sum_d = ws.sum_d.data() + i * stride;
      const auto* max_d = ws.max_d.data() + i * stride;
      for (std::uint32_t base = 1; base <= diameter0_; ++base) {
        if (max_d[base] != 0) {
          p.max = std::max(p.max, static_cast<double>(max_d[base]) /
                                      static_cast<double>(base));
          p.sum += static_cast<double>(sum_d[base]) /
                   static_cast<double>(base);
        }
      }
    }
    out[i] = p;
  }
}

void StretchTracker::list_alive(const FlatView& view) const {
  alive_.clear();
  for (const NodeId v : view.alive_set()) alive_.push_back(v);
}

StretchStats StretchTracker::stretch_stats(const Graph& healed) const {
  DASH_CHECK(healed.num_nodes() == n_);
  const FlatView& view = healed.flat_view();
  if (view.num_alive() < 2) return {};
  list_alive(view);
  const std::vector<NodeId>& alive = alive_;
  StretchStats out;
  double total = 0.0;
  SourcePartial wave[kWave];
  for (std::size_t idx0 = 0; idx0 < alive.size(); idx0 += kWave) {
    const std::size_t count = std::min(kWave, alive.size() - idx0);
    wave_partials(view, alive, idx0, count, wave);
    for (std::size_t i = 0; i < count; ++i) {
      if (wave[i].disconnected) return {kInf, kInf};
      // Max then sum, ascending source order.
      out.max = std::max(out.max, wave[i].max);
      total += wave[i].sum;
    }
  }
  const double pairs = static_cast<double>(alive.size()) *
                       static_cast<double>(alive.size() - 1) / 2.0;
  out.average = total / pairs;
  return out;
}

}  // namespace dash::analysis
