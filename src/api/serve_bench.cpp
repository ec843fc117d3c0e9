#include "api/serve_bench.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "api/network.h"
#include "api/scenario.h"
#include "api/serve.h"
#include "api/sink.h"
#include "graph/generators.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace dash::api {

namespace {

using Clock = std::chrono::steady_clock;

double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Per-reader tallies. Latencies land in a bounded overwrite ring so a
/// multi-million-read round keeps constant memory; quantiles come from
/// the most recent kLatWindow samples per reader (plenty for p999).
struct ReaderTally {
  static constexpr std::size_t kLatWindow = 1 << 18;
  std::vector<double> lat_us;
  std::size_t lat_next = 0;
  std::size_t reads = 0;
  std::size_t distance_reads = 0;
  std::size_t torn = 0;

  void record(double us) {
    if (lat_us.size() < kLatWindow) {
      lat_us.push_back(us);
    } else {
      lat_us[lat_next] = us;
    }
    lat_next = (lat_next + 1) % kLatWindow;
  }
};

/// One run's Metrics as the canonical BENCH JSON document -- the same
/// serialization the batch path emits, so "identical across reader
/// counts" means byte-identical in the format users diff.
std::string metrics_to_json(const Metrics& m) {
  std::ostringstream os;
  JsonSummarySink sink(os);
  sink.on_run(0, m);
  sink.flush();
  return os.str();
}

ServeBenchRound run_one(const ServeBenchConfig& cfg, std::size_t readers,
                        std::ostream& rows_out) {
  util::Rng graph_rng(cfg.seed);
  graph::Graph g = graph::barabasi_albert(cfg.n, cfg.attach, graph_rng);
  Network net(std::move(g), cfg.healer, cfg.seed);

  ServeHandle& serve = net.serve();

  // Row streaming rides along whenever it is configured -- registered
  // on *every* round (identical observer set keeps the mutation stream
  // comparable), into whichever stream the caller hands this round.
  std::unique_ptr<CsvStreamSink> csv;
  if (!cfg.rows_path.empty()) {
    csv = std::make_unique<CsvStreamSink>(rows_out);
    net.add_observer(std::make_unique<SinkObserver>(*csv));
  }

  const Scenario scenario = Scenario::parse(cfg.scenario);

  std::vector<ReaderTally> tallies(readers);
  std::vector<std::thread> threads;
  threads.reserve(readers);
  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};

  for (std::size_t r = 0; r < readers; ++r) {
    ServeReader reader = serve.reader();
    threads.emplace_back([&, r, reader = std::move(reader)]() mutable {
      ReaderTally& tally = tallies[r];
      util::Rng rng(cfg.seed * 0x9e3779b9ULL + r + 1);
      while (!start.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      while (!stop.load(std::memory_order_relaxed)) {
        const auto t0 = Clock::now();
        ServePin pin = reader.pin();
        const graph::FlatView& view = pin.snapshot().view();
        const std::size_t alive = view.num_alive();
        if (alive < 2) {
          ++tally.reads;
          std::this_thread::yield();
          continue;
        }
        const graph::NodeId u =
            view.kth_alive(static_cast<std::size_t>(rng.below(alive)));
        const graph::NodeId v =
            view.kth_alive(static_cast<std::size_t>(rng.below(alive)));
        const bool cross_check =
            cfg.verify ||
            (cfg.distance_every != 0 &&
             tally.reads % cfg.distance_every == cfg.distance_every - 1);
        if (cross_check) {
          const bool conn = pin.connected(u, v);
          const bool reachable = pin.distance(u, v).has_value();
          if (conn != reachable) ++tally.torn;
          ++tally.distance_reads;
        } else if ((tally.reads & 63) == 63) {
          // An occasional component-structure read in the mix.
          (void)pin.largest_component();
        } else {
          (void)pin.connected(u, v);
        }
        tally.record(micros_between(t0, Clock::now()));
        ++tally.reads;
      }
    });
  }

  util::Rng play_rng(cfg.seed + 1);
  const auto t0 = Clock::now();
  start.store(true, std::memory_order_release);
  Metrics m;
  try {
    m = net.play(scenario, play_rng);
  } catch (...) {
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads) t.join();
    throw;
  }
  const auto t1 = Clock::now();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  if (csv) csv->flush();

  ServeBenchRound round;
  round.readers = readers;
  round.secs = micros_between(t0, t1) / 1e6;
  round.final_epoch = serve.epoch();
  round.full_publishes = serve.store().full_publishes();
  round.patched_publishes = serve.store().patched_publishes();
  round.touched_vertices = serve.store().touched_vertices();
  round.metrics = m;
  round.metrics_json = metrics_to_json(m);

  std::vector<double> lat;
  for (const ReaderTally& tally : tallies) {
    round.reads += tally.reads;
    round.distance_reads += tally.distance_reads;
    round.torn_reads += tally.torn;
    lat.insert(lat.end(), tally.lat_us.begin(), tally.lat_us.end());
  }
  round.reads_per_sec = round.secs > 0 ? round.reads / round.secs : 0.0;
  if (!lat.empty()) {
    round.p50_us = util::quantile(lat, 0.5);
    round.p99_us = util::quantile(lat, 0.99);
    round.p999_us = util::quantile(std::move(lat), 0.999);
  }
  return round;
}

}  // namespace

std::size_t ServeBenchReport::total_torn() const {
  std::size_t total = 0;
  for (const ServeBenchRound& r : rounds) total += r.torn_reads;
  return total;
}

ServeBenchReport run_serve_bench(const ServeBenchConfig& cfg) {
  if (cfg.attach == 0) {
    throw std::invalid_argument("graph family 'ba' needs ba_edges >= 1");
  }
  if (cfg.n <= cfg.attach) {
    throw std::invalid_argument(
        "graph family 'ba' needs n >= " + std::to_string(cfg.attach + 1) +
        " (ba_edges + 1), got n=" + std::to_string(cfg.n));
  }
  // The rows file is opened before any round runs, so a bad path
  // fails fast; only the last round writes it, and the earlier rounds'
  // rows go to a stream without a buffer, which drops them.
  std::ofstream rows_file;
  if (!cfg.rows_path.empty()) {
    rows_file.open(cfg.rows_path, std::ios::trunc);
    if (!rows_file) {
      throw std::invalid_argument("cannot write rows to " + cfg.rows_path);
    }
  }
  std::ostream discard(nullptr);
  ServeBenchReport report;
  for (std::size_t i = 0; i < cfg.reader_counts.size(); ++i) {
    const bool last = i + 1 == cfg.reader_counts.size();
    report.rounds.push_back(
        run_one(cfg, cfg.reader_counts[i], last ? rows_file : discard));
    if (report.rounds.back().metrics_json !=
        report.rounds.front().metrics_json) {
      report.deterministic = false;
    }
  }
  return report;
}

void render_serve_table(const ServeBenchReport& report, std::ostream& out) {
  util::Table table({"readers", "reads", "reads/s", "p50_us", "p99_us",
                     "p999_us", "epochs", "full_pub", "patched_pub",
                     "patched_verts", "bfs_reads", "torn", "secs"});
  for (const ServeBenchRound& r : report.rounds) {
    table.begin_row()
        .cell(std::to_string(r.readers))
        .cell(std::to_string(r.reads))
        .cell(r.reads_per_sec, 0)
        .cell(r.p50_us, 2)
        .cell(r.p99_us, 2)
        .cell(r.p999_us, 2)
        .cell(std::to_string(r.final_epoch))
        .cell(std::to_string(r.full_publishes))
        .cell(std::to_string(r.patched_publishes))
        .cell(std::to_string(r.touched_vertices))
        .cell(std::to_string(r.distance_reads))
        .cell(std::to_string(r.torn_reads))
        .cell(r.secs, 3);
  }
  table.print(out);
  out << (report.total_torn() == 0 ? "torn reads: 0"
                                   : "TORN READS DETECTED")
      << "; mutation stream "
      << (report.deterministic ? "deterministic across reader counts"
                               : "DIVERGED across reader counts")
      << "\n";
}

void render_serve_json(const ServeBenchConfig& cfg,
                       const ServeBenchReport& report, std::ostream& out) {
  const auto field = [](double v) { return util::CsvWriter::to_field(v); };
  out << "{\n  \"bench\": \"serve_churn\",\n";
  out << "  \"n\": " << cfg.n << ",\n";
  out << "  \"healer\": " << util::json_string(cfg.healer) << ",\n";
  out << "  \"scenario\": " << util::json_string(cfg.scenario) << ",\n";
  out << "  \"seed\": " << cfg.seed << ",\n";
  out << "  \"verify\": " << (cfg.verify ? "true" : "false") << ",\n";
  out << "  \"deterministic\": " << (report.deterministic ? "true" : "false")
      << ",\n";
  out << "  \"torn_reads\": " << report.total_torn() << ",\n";
  out << "  \"rounds\": [\n";
  for (std::size_t i = 0; i < report.rounds.size(); ++i) {
    const ServeBenchRound& r = report.rounds[i];
    out << "    {\"readers\": " << r.readers << ", \"reads\": " << r.reads
        << ", \"reads_per_sec\": " << field(r.reads_per_sec)
        << ", \"p50_us\": " << field(r.p50_us)
        << ", \"p99_us\": " << field(r.p99_us)
        << ", \"p999_us\": " << field(r.p999_us)
        << ", \"epochs\": " << r.final_epoch
        << ", \"full_publishes\": " << r.full_publishes
        << ", \"patched_publishes\": " << r.patched_publishes
        << ", \"touched_vertices\": " << r.touched_vertices
        << ", \"distance_reads\": " << r.distance_reads
        << ", \"torn_reads\": " << r.torn_reads
        << ", \"secs\": " << field(r.secs) << "}"
        << (i + 1 < report.rounds.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace dash::api
