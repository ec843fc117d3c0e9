#include "graph/metrics.h"

namespace dash::graph {

std::size_t max_degree(const Graph& g) {
  const NodeId hub = g.argmax_degree();
  return hub == kInvalidNode ? 0 : g.degree(hub);
}

double average_degree(const Graph& g) {
  if (g.num_alive() == 0) return 0.0;
  return 2.0 * static_cast<double>(g.num_edges()) /
         static_cast<double>(g.num_alive());
}

std::vector<std::size_t> degree_histogram(const Graph& g) {
  std::vector<std::size_t> hist;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!g.alive(v)) continue;
    const std::size_t d = g.degree(v);
    if (d >= hist.size()) hist.resize(d + 1, 0);
    ++hist[d];
  }
  return hist;
}

}  // namespace dash::graph
