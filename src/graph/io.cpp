#include "graph/io.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dash::graph {

void write_edge_list(std::ostream& out, const Graph& g) {
  out << "# dashheal edge list v1\n";
  out << g.num_nodes() << '\n';
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!g.alive(v)) out << "! " << v << '\n';
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!g.alive(v)) continue;
    for (NodeId u : g.neighbors(v)) {
      if (v < u) out << v << ' ' << u << '\n';
    }
  }
}

namespace {

[[noreturn]] void malformed(std::size_t line_no, const std::string& why) {
  throw std::runtime_error("edge list: line " + std::to_string(line_no) +
                           ": " + why);
}

/// Pop the next blank-separated field off `rest`; empty when none is
/// left.
std::string_view next_field(std::string_view& rest) {
  constexpr std::string_view kBlanks = " \t\r";
  const std::size_t start = rest.find_first_not_of(kBlanks);
  if (start == std::string_view::npos) {
    rest = {};
    return {};
  }
  rest.remove_prefix(start);
  const std::size_t len = std::min(rest.find_first_of(kBlanks), rest.size());
  const std::string_view field = rest.substr(0, len);
  rest.remove_prefix(len);
  return field;
}

/// Reads the line's remaining fields as exactly `count` unsigned
/// decimals, each below `bound`: no sign, nothing outside the range, no
/// field or other bytes after the last.
template <std::size_t count>
std::array<std::uint64_t, count> read_fields(std::string_view rest,
                                             std::uint64_t bound,
                                             std::size_t line_no,
                                             const char* what) {
  std::array<std::uint64_t, count> values{};
  for (std::uint64_t& value : values) {
    const std::string_view field = next_field(rest);
    if (field.empty()) malformed(line_no, std::string(what) + " is truncated");
    const char* end = field.data() + field.size();
    const auto [stop, ec] = std::from_chars(field.data(), end, value);
    if (ec != std::errc() || stop != end || value >= bound) {
      malformed(line_no, std::string(what) + " value '" + std::string(field) +
                             "' is malformed or out of range");
    }
  }
  if (!next_field(rest).empty()) {
    malformed(line_no, std::string(what) + " has bytes after its fields");
  }
  return values;
}

}  // namespace

Graph read_edge_list(std::istream& in) {
  std::string line;
  std::size_t line_no = 0;
  bool have_header = false;
  std::uint64_t n = 0;
  std::vector<NodeId> endpoints;  // two ids per edge
  std::vector<std::pair<NodeId, std::size_t>> dead;  // id, line
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    if (!have_header) {
      // Ids must fit NodeId with kInvalidNode to spare, and the check
      // comes before Graph(n) allocates.
      n = read_fields<1>(line, kInvalidNode, line_no, "node-count header")[0];
      have_header = true;
      continue;
    }
    if (line[0] == '!') {
      const auto [v] = read_fields<1>(std::string_view(line).substr(1), n,
                                      line_no, "dead-node line");
      dead.emplace_back(static_cast<NodeId>(v), line_no);
      continue;
    }
    const auto [a, b] = read_fields<2>(line, n, line_no, "edge line");
    if (a == b) malformed(line_no, "edge line is a self-loop");
    endpoints.push_back(static_cast<NodeId>(a));
    endpoints.push_back(static_cast<NodeId>(b));
  }
  if (!have_header) throw std::runtime_error("edge list: missing header");
  Graph g = Graph::from_edges(static_cast<std::size_t>(n), endpoints);
  for (const auto& [v, at] : dead) {
    if (!g.alive(v)) {
      malformed(at, "dead node " + std::to_string(v) + " is listed twice");
    }
    g.delete_node(v);
  }
  return g;
}

}  // namespace dash::graph
