// io.h -- plain edge-list serialization ("n\nu v\n..." with '#' comments)
// so experiments can be checkpointed and external graphs imported.
#pragma once

#include <istream>
#include <ostream>

#include "graph/graph.h"

namespace dash::graph {

/// Writes "<num_nodes>" then one "u v" line per alive edge (u < v).
/// Dead nodes are recorded as "! v" lines so a round-trip preserves the
/// alive set exactly.
void write_edge_list(std::ostream& out, const Graph& g);

/// Inverse of write_edge_list. Throws std::runtime_error naming the
/// line on malformed input: a missing header, a node count that does
/// not fit NodeId (checked before anything is allocated), a field that
/// is not an unsigned decimal or is out of range, a self-loop, a dead
/// id listed twice, or anything after a line's fields.
Graph read_edge_list(std::istream& in);

}  // namespace dash::graph
