#include "replay/shrink.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <utility>

#include "util/hash.h"

namespace dash::replay {

Trace shrink_trace(const Trace& t, const TraceOracle& still_fails,
                   ShrinkStats* stats) {
  ShrinkStats local;
  local.original_events = t.events.size();

  Trace current = t;
  current.footer.reset();  // recorded totals no longer describe a subset
  if (!still_fails(current)) {
    throw TraceError("shrink_trace: the input trace does not fail");
  }
  ++local.oracle_calls;

  // ddmin-style greedy deletion: try dropping chunks of half the
  // events, halving the chunk on a pass without progress, down to
  // single events. Every kept deletion restarts the pass at the same
  // granularity (smaller traces shrink further).
  std::size_t chunk = std::max<std::size_t>(1, current.events.size() / 2);
  while (true) {
    bool progressed = false;
    for (std::size_t begin = 0; begin < current.events.size();) {
      const std::size_t end =
          std::min(begin + chunk, current.events.size());
      Trace candidate = current;
      candidate.events.erase(candidate.events.begin() + begin,
                             candidate.events.begin() + end);
      ++local.oracle_calls;
      if (still_fails(candidate)) {
        current = std::move(candidate);
        progressed = true;
        // The window now holds the events that followed the chunk;
        // retry the same position.
      } else {
        begin = end;
      }
    }
    if (!progressed) {
      if (chunk == 1) break;
      chunk = std::max<std::size_t>(1, chunk / 2);
    }
  }

  local.shrunk_events = current.events.size();
  if (stats != nullptr) *stats = local;
  return current;
}

std::string repro_dir(const std::string& dir) {
  if (!dir.empty()) return dir;
  const char* env = std::getenv("DASH_REPRO_DIR");
  if (env != nullptr && env[0] != '\0') return env;
  return "dash_repro";
}

std::string write_repro(const Trace& t, const std::string& reason,
                        const std::string& dir) {
  const std::string target = repro_dir(dir);
  std::filesystem::create_directories(target);
  // Deterministic content-derived name: the same failure lands on the
  // same file across runs instead of piling up.
  std::uint64_t h = kDigestSeed;
  for (char c : t.healer) h = digest_mix(h, static_cast<unsigned char>(c));
  h = digest_mix(h, t.seed);
  h = digest_mix(h, t.events.size());
  for (const TraceEvent& e : t.events) {
    h = digest_mix(h, static_cast<std::uint64_t>(e.kind));
    for (graph::NodeId v : e.nodes) h = digest_mix(h, v);
  }
  const std::string path =
      target + "/repro_" + t.healer + "_" + util::hex16(h) + ".trace";
  write_trace_file(path, t);
  std::ofstream why(path + ".reason.txt", std::ios::trunc);
  if (why) why << reason << "\n";
  return path;
}

}  // namespace dash::replay
