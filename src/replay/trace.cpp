#include "replay/trace.h"

#include <fstream>
#include <ostream>
#include <sstream>

#include "graph/io.h"
#include "util/hash.h"
#include "util/json.h"

namespace dash::replay {

namespace {

/// "[1,2,3]" (or "[]").
std::vector<graph::NodeId> read_node_list(util::JsonReader& r) {
  std::vector<graph::NodeId> out;
  r.expect("[");
  while (!r.consume("]")) {
    if (!out.empty()) r.expect(",");
    out.push_back(r.uint<graph::NodeId>());
  }
  return out;
}

std::string node_list(const std::vector<graph::NodeId>& nodes) {
  std::string out = "[";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(nodes[i]);
  }
  out += ']';
  return out;
}

/// `,"h":"<digest>"}` -- the tail of every applied event.
std::uint64_t read_digest_tail(util::JsonReader& r) {
  r.expect(",\"h\":\"");
  const std::uint64_t h = r.hex16();
  r.expect("\"}");
  r.end();
  return h;
}

bool parse_event(const std::string& line, TraceEvent* out) {
  TraceEvent e;
  try {
    util::JsonReader r(line);
    r.expect("{\"e\":");
    const std::string kind = r.string();
    if (kind == "phase") {
      e.kind = EventKind::kPhase;
      r.expect(",\"s\":");
      e.phase = r.string();
      r.expect("}");
      r.end();
    } else if (kind == "rm" || kind == "rmb") {
      e.kind = kind == "rm" ? EventKind::kRemove : EventKind::kBatch;
      r.expect(",\"n\":");
      e.nodes = read_node_list(r);
      e.row_hash = read_digest_tail(r);
      if (e.nodes.empty()) return false;
      if (e.kind == EventKind::kRemove && e.nodes.size() != 1) return false;
    } else if (kind == "join") {
      e.kind = EventKind::kJoin;
      r.expect(",\"id\":");
      e.joined = r.uint<graph::NodeId>();
      r.expect(",\"n\":");
      e.nodes = read_node_list(r);
      e.row_hash = read_digest_tail(r);
    } else {
      return false;
    }
  } catch (const util::JsonError&) {
    return false;
  }
  *out = std::move(e);
  return true;
}

bool parse_footer(const std::string& line, TraceFooter* out) {
  TraceFooter f;
  TraceMetrics& m = f.metrics;
  try {
    util::JsonReader r(line);
    r.expect("{\"e\":\"end\",\"events\":");
    f.events = r.uint<std::size_t>();
    r.expect(",\"h\":\"");
    f.row_hash = r.hex16();
    r.expect("\",\"m\":{\"deletions\":");
    m.deletions = r.uint<std::size_t>();
    r.expect(",\"joins\":");
    m.joins = r.uint<std::size_t>();
    r.expect(",\"max_delta\":");
    m.max_delta = r.uint<std::uint32_t>();
    r.expect(",\"max_id_changes\":");
    m.max_id_changes = r.uint<std::uint32_t>();
    r.expect(",\"max_messages\":");
    m.max_messages = r.uint<std::uint64_t>();
    r.expect(",\"max_messages_sent\":");
    m.max_messages_sent = r.uint<std::uint64_t>();
    r.expect(",\"edges_added\":");
    m.edges_added = r.uint<std::size_t>();
    r.expect(",\"surrogate_heals\":");
    m.surrogate_heals = r.uint<std::size_t>();
    r.expect(",\"components\":");
    m.components = r.uint<std::size_t>();
    r.expect(",\"largest_component\":");
    m.largest_component = r.uint<std::size_t>();
    r.expect(",\"stayed_connected\":");
    m.stayed_connected = r.boolean();
    r.expect("}}");
    r.end();
  } catch (const util::JsonError&) {
    return false;
  }
  *out = f;
  return true;
}

/// Header parse. Throws: the header is never covered by the
/// truncated-final-line tolerance (without it there is no trace).
void parse_header(const std::string& line, Trace* out) {
  util::JsonReader r(line);
  if (!r.consume("{\"trace\":\"dash-replay\",\"v\":")) {
    throw TraceError("not a dash-replay trace (bad header magic)");
  }
  try {
    const int version = r.uint<int>();
    if (version != kTraceVersion) {
      throw VersionMismatchError(version, kTraceVersion);
    }
    out->version = version;
    r.expect(",\"healer\":");
    out->healer = r.string();
    r.expect(",\"scenario\":");
    out->scenario = r.string();
    r.expect(",\"seed\":");
    out->seed = r.uint<std::uint64_t>();
    r.expect(",\"graph\":");
    out->graph_text = r.string();
    r.expect(",\"state\":");
    out->state_text = r.string();
    r.expect("}");
    r.end();
  } catch (const util::JsonError& e) {
    throw TraceError(std::string("corrupt trace header: ") + e.what());
  }
}

}  // namespace

VersionMismatchError::VersionMismatchError(int got, int want)
    : TraceError("trace format version " + std::to_string(got) +
                 " does not match this build's version " +
                 std::to_string(want) + " -- re-record the trace"),
      recorded_(got) {}

std::size_t Trace::applied_events() const {
  std::size_t n = 0;
  for (const TraceEvent& e : events) {
    if (e.kind != EventKind::kPhase) ++n;
  }
  return n;
}

graph::Graph Trace::build_graph() const {
  std::istringstream in(graph_text);
  try {
    return graph::read_edge_list(in);
  } catch (const std::exception& e) {
    throw TraceError(std::string("corrupt graph snapshot: ") + e.what());
  }
}

core::HealingState Trace::build_state() const {
  std::istringstream in(state_text);
  try {
    return core::HealingState::load(in);
  } catch (const std::exception& e) {
    throw TraceError(std::string("corrupt healing-state snapshot: ") +
                     e.what());
  }
}

std::uint64_t digest_mix(std::uint64_t h, std::uint64_t v) {
  // FNV-1a over the value's 8 little-endian bytes.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string TraceMetrics::describe() const {
  std::string out;
  const auto field = [&out](const char* name, std::uint64_t v) {
    if (!out.empty()) out += ' ';
    out += name;
    out += '=';
    out += std::to_string(v);
  };
  field("deletions", deletions);
  field("joins", joins);
  field("max_delta", max_delta);
  field("max_id_changes", max_id_changes);
  field("max_messages", max_messages);
  field("max_messages_sent", max_messages_sent);
  field("edges_added", edges_added);
  field("surrogate_heals", surrogate_heals);
  field("components", components);
  field("largest_component", largest_component);
  field("stayed_connected", stayed_connected ? 1 : 0);
  return out;
}

std::string header_line(const Trace& t) {
  std::string out = "{\"trace\":\"dash-replay\",\"v\":";
  out += std::to_string(t.version);
  out += ",\"healer\":";
  out += util::json_string(t.healer);
  out += ",\"scenario\":";
  out += util::json_string(t.scenario);
  out += ",\"seed\":";
  out += std::to_string(t.seed);
  out += ",\"graph\":";
  out += util::json_string(t.graph_text);
  out += ",\"state\":";
  out += util::json_string(t.state_text);
  out += "}";
  return out;
}

std::string event_line(const TraceEvent& e) {
  switch (e.kind) {
    case EventKind::kPhase:
      return "{\"e\":\"phase\",\"s\":" + util::json_string(e.phase) + "}";
    case EventKind::kRemove:
    case EventKind::kBatch: {
      std::string out = e.kind == EventKind::kRemove ? "{\"e\":\"rm\",\"n\":"
                                                     : "{\"e\":\"rmb\",\"n\":";
      out += node_list(e.nodes);
      out += ",\"h\":\"";
      out += util::hex16(e.row_hash);
      out += "\"}";
      return out;
    }
    case EventKind::kJoin: {
      std::string out = "{\"e\":\"join\",\"id\":";
      out += std::to_string(e.joined);
      out += ",\"n\":";
      out += node_list(e.nodes);
      out += ",\"h\":\"";
      out += util::hex16(e.row_hash);
      out += "\"}";
      return out;
    }
  }
  throw TraceError("unreachable event kind");
}

std::string footer_line(const TraceFooter& f) {
  const TraceMetrics& m = f.metrics;
  std::string out = "{\"e\":\"end\",\"events\":";
  out += std::to_string(f.events);
  out += ",\"h\":\"";
  out += util::hex16(f.row_hash);
  out += "\",\"m\":{\"deletions\":";
  out += std::to_string(m.deletions);
  out += ",\"joins\":";
  out += std::to_string(m.joins);
  out += ",\"max_delta\":";
  out += std::to_string(m.max_delta);
  out += ",\"max_id_changes\":";
  out += std::to_string(m.max_id_changes);
  out += ",\"max_messages\":";
  out += std::to_string(m.max_messages);
  out += ",\"max_messages_sent\":";
  out += std::to_string(m.max_messages_sent);
  out += ",\"edges_added\":";
  out += std::to_string(m.edges_added);
  out += ",\"surrogate_heals\":";
  out += std::to_string(m.surrogate_heals);
  out += ",\"components\":";
  out += std::to_string(m.components);
  out += ",\"largest_component\":";
  out += std::to_string(m.largest_component);
  out += ",\"stayed_connected\":";
  out += m.stayed_connected ? "true" : "false";
  out += "}}";
  return out;
}

TraceWriter::TraceWriter(std::ostream& out, const Trace& header)
    : out_(out) {
  out_ << header_line(header) << '\n' << std::flush;
}

void TraceWriter::event(const TraceEvent& e) {
  out_ << event_line(e) << '\n' << std::flush;
}

void TraceWriter::finish(const TraceFooter& f) {
  out_ << footer_line(f) << '\n' << std::flush;
  finished_ = true;
}

Trace load_trace(std::istream& in) {
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  if (lines.empty()) throw TraceError("empty trace");

  Trace t;
  parse_header(lines.front(), &t);

  for (std::size_t i = 1; i < lines.size(); ++i) {
    const bool last = i + 1 == lines.size();
    TraceEvent e;
    if (parse_event(lines[i], &e)) {
      t.events.push_back(std::move(e));
      continue;
    }
    TraceFooter f;
    if (parse_footer(lines[i], &f)) {
      if (!last) {
        throw TraceError("corrupt trace: events after the footer (line " +
                         std::to_string(i + 1) + ")");
      }
      if (f.events != t.applied_events()) {
        throw TraceError(
            "corrupt trace: footer claims " + std::to_string(f.events) +
            " events, trace carries " +
            std::to_string(t.applied_events()));
      }
      t.footer = f;
      continue;
    }
    if (last) continue;  // truncated final line: drop it, load incomplete
    throw TraceError("corrupt trace: bad line " + std::to_string(i + 1));
  }
  return t;
}

Trace load_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw TraceError("cannot open trace file '" + path + "'");
  return load_trace(in);
}

void write_trace(std::ostream& out, const Trace& t) {
  out << header_line(t) << '\n';
  for (const TraceEvent& e : t.events) out << event_line(e) << '\n';
  if (t.footer.has_value()) out << footer_line(*t.footer) << '\n';
  out.flush();
}

void write_trace_file(const std::string& path, const Trace& t) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw TraceError("cannot open trace file '" + path + "'");
  write_trace(out, t);
}

}  // namespace dash::replay
