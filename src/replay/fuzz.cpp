#include "replay/fuzz.h"

#include <algorithm>
#include <utility>

#include "core/factory.h"
#include "replay/play.h"
#include "replay/shrink.h"

namespace dash::replay {

namespace {

// ---- trace segment helpers ----------------------------------------------

struct Segment {
  std::size_t begin = 0;
  std::size_t end = 0;  ///< exclusive
};

/// Segments delimited by kPhase markers; a marker opens the segment it
/// leads (events before the first marker form a headless segment).
std::vector<Segment> phase_segments(const std::vector<TraceEvent>& events) {
  std::vector<Segment> segs;
  std::size_t start = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == EventKind::kPhase && i != start) {
      segs.push_back({start, i});
      start = i;
    }
  }
  if (start < events.size()) segs.push_back({start, events.size()});
  return segs;
}

void append_range(std::vector<TraceEvent>& out,
                  const std::vector<TraceEvent>& events,
                  std::size_t begin, std::size_t end) {
  out.insert(out.end(),
             events.begin() + static_cast<std::ptrdiff_t>(begin),
             events.begin() + static_cast<std::ptrdiff_t>(end));
}

/// Node-id space of the trace's snapshot, from the edge-list header
/// ("<num_nodes>\n...") without rebuilding the graph.
std::size_t snapshot_num_nodes(const Trace& t) {
  // The snapshot may lead with '#' comment lines (the edge-list format
  // header); the node count is the first line that starts with a digit.
  std::size_t pos = 0;
  while (pos < t.graph_text.size()) {
    const char c = t.graph_text[pos];
    if (c >= '0' && c <= '9') break;
    const std::size_t eol = t.graph_text.find('\n', pos);
    if (eol == std::string::npos) return 0;
    pos = eol + 1;
  }
  std::size_t n = 0;
  for (; pos < t.graph_text.size(); ++pos) {
    const char c = t.graph_text[pos];
    if (c < '0' || c > '9') break;
    n = n * 10 + static_cast<std::size_t>(c - '0');
  }
  return n;
}

/// Index of a random event of `kind`, or npos when none exists.
std::size_t find_kind(const std::vector<TraceEvent>& events,
                      EventKind kind, dash::util::Rng& rng) {
  std::vector<std::size_t> matches;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == kind) matches.push_back(i);
  }
  if (matches.empty()) return static_cast<std::size_t>(-1);
  return matches[static_cast<std::size_t>(rng.below(matches.size()))];
}

void apply_one_mutation(Trace& t, dash::util::Rng& rng) {
  auto& events = t.events;
  if (events.empty()) return;
  const std::size_t n = events.size();
  switch (rng.below(10)) {
    case 0: {  // drop one event
      events.erase(events.begin() +
                   static_cast<std::ptrdiff_t>(rng.below(n)));
      break;
    }
    case 1: {  // drop a short span
      const std::size_t begin = static_cast<std::size_t>(rng.below(n));
      const std::size_t len = 1 + static_cast<std::size_t>(rng.below(
                                      std::min<std::uint64_t>(8, n - begin)));
      events.erase(events.begin() + static_cast<std::ptrdiff_t>(begin),
                   events.begin() + static_cast<std::ptrdiff_t>(begin + len));
      break;
    }
    case 2: {  // duplicate an event in place
      const std::size_t i = static_cast<std::size_t>(rng.below(n));
      events.insert(events.begin() + static_cast<std::ptrdiff_t>(i),
                    events[i]);
      break;
    }
    case 3: {  // swap adjacent events
      if (n < 2) break;
      const std::size_t i = static_cast<std::size_t>(rng.below(n - 1));
      std::swap(events[i], events[i + 1]);
      break;
    }
    case 4: {  // retarget a removal at a random node id
      const std::size_t i = find_kind(events, EventKind::kRemove, rng);
      const std::size_t space = snapshot_num_nodes(t);
      if (i == static_cast<std::size_t>(-1) || space == 0) break;
      events[i].nodes.front() =
          static_cast<graph::NodeId>(rng.below(space));
      break;
    }
    case 5: {  // merge two adjacent removals into a simultaneous batch
      std::vector<std::size_t> pairs;
      for (std::size_t i = 0; i + 1 < events.size(); ++i) {
        if (events[i].kind == EventKind::kRemove &&
            events[i + 1].kind == EventKind::kRemove &&
            events[i].nodes.front() != events[i + 1].nodes.front()) {
          pairs.push_back(i);
        }
      }
      if (pairs.empty()) break;
      const std::size_t i =
          pairs[static_cast<std::size_t>(rng.below(pairs.size()))];
      events[i].kind = EventKind::kBatch;
      events[i].nodes.push_back(events[i + 1].nodes.front());
      events.erase(events.begin() + static_cast<std::ptrdiff_t>(i + 1));
      break;
    }
    case 6: {  // split a batch into sequential removals
      const std::size_t i = find_kind(events, EventKind::kBatch, rng);
      if (i == static_cast<std::size_t>(-1)) break;
      std::vector<TraceEvent> singles;
      for (graph::NodeId v : events[i].nodes) {
        TraceEvent e;
        e.kind = EventKind::kRemove;
        e.nodes = {v};
        singles.push_back(std::move(e));
      }
      events.erase(events.begin() + static_cast<std::ptrdiff_t>(i));
      events.insert(events.begin() + static_cast<std::ptrdiff_t>(i),
                    singles.begin(), singles.end());
      break;
    }
    case 7: {  // truncate the tail (the crash-at-any-point shape)
      events.resize(static_cast<std::size_t>(rng.below(n)) + 1);
      break;
    }
    // Scenario-aware mutations: they edit whole phase segments (the
    // kPhase markers the recorder stamps) instead of single events.
    // No-ops on traces without enough phase structure.
    case 8: {  // reorder two phase segments
      reorder_trace_phases(t, rng);
      break;
    }
    case 9: {  // churn-rate perturbation inside one segment
      perturb_trace_churn(t, rng);
      break;
    }
  }
}

}  // namespace

bool reorder_trace_phases(Trace& trace, util::Rng& rng) {
  const auto segs = phase_segments(trace.events);
  if (segs.size() < 2) return false;
  std::size_t i = static_cast<std::size_t>(rng.below(segs.size()));
  std::size_t j = static_cast<std::size_t>(rng.below(segs.size() - 1));
  if (j >= i) ++j;
  if (i > j) std::swap(i, j);
  std::vector<TraceEvent> out;
  out.reserve(trace.events.size());
  append_range(out, trace.events, 0, segs[i].begin);
  append_range(out, trace.events, segs[j].begin, segs[j].end);
  append_range(out, trace.events, segs[i].end, segs[j].begin);
  append_range(out, trace.events, segs[i].begin, segs[i].end);
  append_range(out, trace.events, segs[j].end, trace.events.size());
  trace.events = std::move(out);
  return true;
}

bool perturb_trace_churn(Trace& trace, util::Rng& rng) {
  const auto segs = phase_segments(trace.events);
  if (segs.empty()) return false;
  const Segment seg =
      segs[static_cast<std::size_t>(rng.below(segs.size()))];
  const bool thin = rng.below(2) == 0;
  std::vector<TraceEvent> out;
  out.reserve(trace.events.size() + (seg.end - seg.begin));
  append_range(out, trace.events, 0, seg.begin);
  bool changed = false;
  for (std::size_t i = seg.begin; i < seg.end; ++i) {
    const TraceEvent& e = trace.events[i];
    const bool churn_event = e.kind == EventKind::kJoin ||
                             e.kind == EventKind::kRemove;
    if (churn_event && rng.below(4) == 0) {
      changed = true;
      if (thin) continue;  // drop: the leave/join rate falls
      out.push_back(e);    // duplicate: it rises
      out.push_back(e);
      continue;
    }
    out.push_back(e);
  }
  append_range(out, trace.events, seg.end, trace.events.size());
  if (!changed) return false;
  trace.events = std::move(out);
  return true;
}

Trace mutate_trace(const Trace& t, dash::util::Rng& rng) {
  Trace mutant = t;
  mutant.footer.reset();
  const std::size_t mutations = 1 + static_cast<std::size_t>(rng.below(3));
  for (std::size_t i = 0; i < mutations; ++i) {
    apply_one_mutation(mutant, rng);
  }
  for (TraceEvent& e : mutant.events) e.row_hash = 0;  // stale after edits
  return mutant;
}

FuzzReport fuzz_trace(const Trace& golden, const FuzzOptions& opt) {
  const std::vector<std::string> healers =
      opt.healers.empty() ? core::paper_strategy_specs() : opt.healers;
  dash::util::Rng rng(opt.seed);
  FuzzReport report;
  for (std::size_t m = 0; m < opt.mutants; ++m) {
    const Trace mutant = mutate_trace(golden, rng);
    ++report.mutants;
    for (const std::string& healer : healers) {
      ReplayOptions ro;
      ro.healer_override = healer;
      ro.lenient = true;
      ro.check_invariants = true;
      const ReplayResult r = play_trace(mutant, ro);
      ++report.replays;
      if (r.violation.empty()) continue;

      FuzzFailure f;
      f.mutant = m;
      f.healer = healer;
      f.violation = r.violation;
      f.original_events = mutant.events.size();
      f.shrunk_events = mutant.events.size();
      if (opt.shrink) {
        const TraceOracle oracle = [&healer](const Trace& candidate) {
          ReplayOptions o;
          o.healer_override = healer;
          o.lenient = true;
          o.check_invariants = true;
          return !play_trace(candidate, o).violation.empty();
        };
        Trace shrunk = shrink_trace(mutant, oracle);
        // Stamp the failing healer so the repro replays standalone
        // (`dash_lab replay --trace <repro> --lenient --invariants`).
        shrunk.healer = healer;
        f.shrunk_events = shrunk.events.size();
        f.repro_path = write_repro(
            shrunk, "healer " + healer + ": " + r.violation, opt.repro_dir);
      }
      report.failures.push_back(std::move(f));
    }
  }
  return report;
}

}  // namespace dash::replay
