// sample.h -- uniform draws over a Graph's alive ids.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace dash::graph {

/// Uniform min(k, num_alive)-subset of the alive ids, in draw order: a
/// partial Fisher-Yates over alive ranks. Draw i is
/// rng.below(num_alive - i), so the draws and the returned nodes are
/// exactly those of shuffling alive_nodes() in place for that many
/// steps -- k = 1 is the single rng.below(num_alive()) draw. The list is
/// never built: ranks resolve through Graph::kth_alive and displaced
/// positions live in a k-entry swap map, so a call is O(k log n).
/// NOTE: the draw count is part of the deterministic stream layout;
/// changing it changes every seeded result.
std::vector<NodeId> sample_alive(const Graph& g, dash::util::Rng& rng,
                                 std::size_t k);

}  // namespace dash::graph
