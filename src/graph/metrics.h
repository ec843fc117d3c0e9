// metrics.h -- static degree/size metrics of the alive subgraph.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.h"

namespace dash::graph {

/// Maximum degree over alive nodes (0 for an empty graph): the degree
/// of Graph::argmax_degree().
std::size_t max_degree(const Graph& g);

/// Mean degree over alive nodes (0 for an empty graph).
double average_degree(const Graph& g);

/// histogram[d] = number of alive nodes with degree d.
std::vector<std::size_t> degree_histogram(const Graph& g);

}  // namespace dash::graph
