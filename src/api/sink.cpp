#include "api/sink.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>
#include <type_traits>

#include "api/network.h"
#include "api/observers.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/stats.h"

namespace dash::api {

const std::vector<std::string>& round_row_header() {
  static const std::vector<std::string> header{
      "instance",      "round",       "deletions_in_round",
      "event_node",    "kind",        "alive",
      "edges",         "edges_added", "max_delta",
      "largest_component", "stretch", "stretch_sampled"};
  return header;
}

void append_round_row(std::string& out, const RoundRow& row) {
  // Formatted in place, then trimmed. A row is at most 195 chars: seven
  // size_t fields of 20 digits, two uint32 fields of 10, "delete", a
  // %.10g double of at most 17 ("-1.234567891e-308"), the 0/1 flag and
  // 11 commas.
  const std::size_t at = out.size();
  out.resize(at + 256);
  char* p = out.data() + at;
  char* const end = out.data() + out.size();
  const auto field = [&](auto value) {
    p = std::to_chars(p, end, value).ptr;
    *p++ = ',';
  };
  field(row.instance);
  field(row.round);
  field(row.deletions_in_round);
  field(row.event_node);
  const std::string_view kind = row.is_join ? "join," : "delete,";
  p = std::copy(kind.begin(), kind.end(), p);
  field(row.alive);
  field(row.edges);
  field(row.edges_added);
  field(row.max_delta);
  field(row.largest_component);
  // As util::CsvWriter::to_field(double): printf "%.10g" in the C
  // locale.
  p = std::to_chars(p, end, row.stretch, std::chars_format::general, 10)
          .ptr;
  *p++ = ',';
  *p++ = row.stretch_sampled ? '1' : '0';
  out.resize(static_cast<std::size_t>(p - out.data()));
}

namespace {

constexpr std::string_view kDocumentHead = "{\"groups\":[";
constexpr std::string_view kDocumentTail = "]}\n";

std::string json_number(double v) { return util::CsvWriter::to_field(v); }

/// One numeric Metrics field of a BENCH run: how to write it (as a
/// double) and how to read it back strictly.
struct SummaryField {
  const char* name;
  double (*get)(const Metrics&);
  void (*set)(Metrics&, double);
};

/// Integer fields read back only whole values their type can hold:
/// casting any other double to them is undefined.
template <auto Member>
SummaryField summary_field(const char* name) {
  return {name,
          [](const Metrics& m) { return static_cast<double>(m.*Member); },
          [](Metrics& m, double v) {
            using T = std::remove_reference_t<decltype(m.*Member)>;
            if constexpr (std::is_integral_v<T>) {
              if (!(v >= 0.0 &&
                    v < std::ldexp(1.0, std::numeric_limits<T>::digits) &&
                    v == std::trunc(v))) {
                throw util::JsonError("BENCH run field out of range");
              }
            }
            m.*Member = static_cast<T>(v);
          }};
}

/// The numeric Metrics fields a summary aggregates, in write order.
const std::vector<SummaryField>& summary_fields() {
  static const std::vector<SummaryField> fields{
      summary_field<&Metrics::deletions>("deletions"),
      summary_field<&Metrics::joins>("joins"),
      summary_field<&Metrics::max_delta>("max_delta"),
      summary_field<&Metrics::max_id_changes>("max_id_changes"),
      summary_field<&Metrics::max_messages>("max_messages"),
      summary_field<&Metrics::max_messages_sent>("max_messages_sent"),
      summary_field<&Metrics::edges_added>("edges_added"),
      summary_field<&Metrics::surrogate_heals>("surrogate_heals"),
      summary_field<&Metrics::max_stretch>("max_stretch"),
      summary_field<&Metrics::components>("components"),
      summary_field<&Metrics::largest_component>("largest_component"),
  };
  return fields;
}

}  // namespace

// ---- CsvStreamSink ----------------------------------------------------

CsvStreamSink::CsvStreamSink(std::ostream& out) : out_(out) {
  util::CsvWriter header(out_, round_row_header());  // writes the header
}

void CsvStreamSink::on_row(const RoundRow& row) {
  line_.clear();
  append_round_row(line_, row);
  line_ += '\n';
  out_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
  ++rows_;
}

void CsvStreamSink::flush() { out_.flush(); }

// ---- JsonSummarySink --------------------------------------------------

void JsonSummarySink::begin_group(
    std::vector<std::pair<std::string, std::string>> labels) {
  groups_.push_back(Group{std::move(labels), {}});
}

void JsonSummarySink::on_run(std::size_t /*instance*/, const Metrics& m) {
  if (groups_.empty()) groups_.push_back(Group{});
  groups_.back().runs.push_back(m);
}

void JsonSummarySink::flush() {
  if (flushed_) return;  // one document per sink
  flushed_ = true;
  std::vector<std::string> rendered;
  rendered.reserve(groups_.size());
  for (const Group& g : groups_) {
    rendered.push_back(bench_group(g.labels, g.runs));
  }
  write_bench_document(out_, rendered);
  out_.flush();
}

// ---- the BENCH_*.json format ----------------------------------------------

std::string bench_group(
    const std::vector<std::pair<std::string, std::string>>& labels,
    const std::vector<Metrics>& runs) {
  // Only strings are inserted, so no stream locale touches the bytes.
  std::ostringstream out;
  out << "{\"labels\":{";
  for (std::size_t li = 0; li < labels.size(); ++li) {
    if (li) out << ',';
    out << util::json_string(labels[li].first) << ':'
        << util::json_string(labels[li].second);
  }
  out << "},\"instances\":" << std::to_string(runs.size()) << ",\"runs\":[";
  for (std::size_t ri = 0; ri < runs.size(); ++ri) {
    const Metrics& m = runs[ri];
    if (ri) out << ',';
    for (std::size_t fi = 0; fi < summary_fields().size(); ++fi) {
      const SummaryField& f = summary_fields()[fi];
      out << (fi ? ",\"" : "{\"") << f.name << "\":" << json_number(f.get(m));
    }
    out << ",\"stayed_connected\":" << (m.stayed_connected ? "true" : "false")
        << ",\"violation\":" << util::json_string(m.violation) << '}';
  }
  out << "],\"summary\":{";
  for (std::size_t fi = 0; fi < summary_fields().size(); ++fi) {
    const SummaryField& f = summary_fields()[fi];
    std::vector<double> xs;
    xs.reserve(runs.size());
    for (const Metrics& m : runs) xs.push_back(f.get(m));
    const util::Summary s = util::summarize(xs);
    if (fi) out << ',';
    out << '"' << f.name << "\":{\"mean\":" << json_number(s.mean)
        << ",\"stddev\":" << json_number(s.stddev)
        << ",\"min\":" << json_number(s.min)
        << ",\"max\":" << json_number(s.max)
        << ",\"median\":" << json_number(s.median) << '}';
  }
  out << "}}";
  return out.str();
}

void write_bench_document(std::ostream& out,
                          const std::vector<std::string>& groups) {
  out << kDocumentHead;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    if (i) out << ',';
    out << groups[i];
  }
  out << kDocumentTail;
}

std::vector<Metrics> bench_group_runs(std::string_view group) {
  util::JsonReader r(group);
  r.expect("{\"labels\":");
  r.object();
  r.expect(",\"instances\":");
  const auto instances = r.uint<std::size_t>();
  r.expect(",\"runs\":[");
  std::vector<Metrics> runs;
  while (!r.consume("],\"summary\":")) {
    if (!runs.empty()) r.expect(",");
    Metrics m;
    for (std::size_t fi = 0; fi < summary_fields().size(); ++fi) {
      const SummaryField& f = summary_fields()[fi];
      r.expect(fi ? ",\"" : "{\"");
      r.expect(f.name);
      r.expect("\":");
      f.set(m, r.number());
    }
    r.expect(",\"stayed_connected\":");
    m.stayed_connected = r.boolean();
    r.expect(",\"violation\":");
    m.violation = r.string();
    r.expect("}");
    runs.push_back(std::move(m));
  }
  if (runs.size() != instances) {
    throw util::JsonError("BENCH group claims " + std::to_string(instances) +
                          " instances but holds " +
                          std::to_string(runs.size()) + " runs");
  }
  r.object();
  r.expect("}");
  r.end();
  return runs;
}

// ---- SinkObserver -------------------------------------------------------

void SinkObserver::on_round_end(const Network& net, const RoundEvent& ev) {
  // Batch rounds produce one row covering deletions_in_round nodes:
  // `round` jumps by the batch size and `event_node` names the first
  // batch member.
  RoundRow row;
  row.instance = instance_;
  row.seq = seq_++;
  row.round = ev.round;
  row.deletions_in_round = ev.deletions_in_round;
  row.event_node = ev.victim == graph::kInvalidNode ? 0 : ev.victim;
  row.alive = net.graph().num_alive();
  row.edges = net.graph().num_edges();
  row.edges_added = ev.edges_added;
  row.max_delta = net.state().max_delta_ever();
  // Engine-answered: the incremental tracker for owning engines, one
  // scan per row otherwise -- identical values either way.
  row.largest_component = net.largest_component();
  if (stretch_ != nullptr && stretch_->sampled_last_round()) {
    row.stretch = stretch_->last_sample();
    row.stretch_sampled = true;
  }
  sink_.on_row(row);
}

void SinkObserver::on_join(const Network& net, const JoinEvent& ev) {
  RoundRow row;
  row.instance = instance_;
  row.seq = seq_++;
  row.round = net.rounds();
  row.deletions_in_round = 0;
  row.event_node = ev.joined;
  row.is_join = true;
  row.alive = net.graph().num_alive();
  row.edges = net.graph().num_edges();
  row.max_delta = net.state().max_delta_ever();
  row.largest_component = net.largest_component();
  sink_.on_row(row);
}

void SinkObserver::on_finish(const Network& /*net*/, Metrics& out) {
  sink_.on_run(instance_, out);
}

}  // namespace dash::api
