#include "fleet/coordinator.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>

#include "exp/runner.h"
#include "util/log.h"

namespace dash::fleet {

namespace {

using Clock = std::chrono::steady_clock;

/// How often the coordinator emits an unprompted progress line.
constexpr std::chrono::milliseconds kProgressPeriod(5000);

/// One accepted connection: an agent (after HELLO), a status client,
/// or a stranger that never introduced itself.
struct Conn {
  explicit Conn(Channel c) : ch(std::move(c)) {}

  Channel ch;
  bool hello = false;
  std::string name;
  std::size_t stats = 0;       ///< index into FleetReport::agents
  bool claim_pending = false;
  bool has_lease = false;
  std::size_t lease_cell = 0;
  Clock::time_point deadline;
  /// ROWS frames staged per cell, committed only with the RESULT.
  std::map<std::size_t, std::vector<std::string>> staged;
  bool dead = false;
};

/// The default unix socket lives inside the state dir, which must
/// exist before bind; the spool files want it anyway.
Endpoint resolve_listen(const CoordinatorOptions& o) {
  std::filesystem::create_directories(o.state_dir);
  return Endpoint::parse(
      o.listen.empty() ? "unix:" + o.state_dir + "/fleet.sock" : o.listen);
}

/// Line-oriented spool writer over an O_CLOEXEC fd. std::ofstream
/// exposes no descriptor, so it cannot set the flag -- and a spool fd
/// inherited by a spawned agent keeps writing position shared across
/// processes *and* holds the file open past coordinator restart, so
/// the manifest a --resume reads could still be growing. Every line is
/// a full write(2): each committed record is durable in the spool the
/// moment commit() returns, which is the resume contract.
class SpoolFile {
 public:
  SpoolFile() = default;
  ~SpoolFile() { close(); }
  SpoolFile(const SpoolFile&) = delete;
  SpoolFile& operator=(const SpoolFile&) = delete;

  void open(const std::string& path) {
    close();
    fd_ = ::open(path.c_str(),
                 O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    ok_ = fd_ >= 0;
  }

  void write_line(const std::string& line) {
    if (fd_ < 0) {
      ok_ = false;
      return;
    }
    std::string buf = line;
    buf += '\n';
    std::size_t off = 0;
    while (off < buf.size()) {
      const ssize_t n = ::write(fd_, buf.data() + off, buf.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        ok_ = false;
        return;
      }
      off += static_cast<std::size_t>(n);
    }
  }

  bool ok() const { return ok_; }
  int fd() const { return fd_; }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  bool ok_ = true;
};

}  // namespace

struct Coordinator::Impl {
  Impl(exp::ExperimentSpec s, CoordinatorOptions o)
      : spec(std::move(s)),
        opt(std::move(o)),
        hash(spec.hash()),
        cells(spec.enumerate()),
        listener(resolve_listen(opt)) {}

  exp::ExperimentSpec spec;
  CoordinatorOptions opt;
  std::string hash;
  std::vector<exp::Cell> cells;
  Listener listener;

  std::vector<std::unique_ptr<Conn>> conns;
  std::deque<std::size_t> pending;       ///< cells nobody holds
  std::set<std::size_t> running;         ///< leased cells
  std::map<std::size_t, std::string> done;  ///< cell -> group_json
  std::vector<exp::ShardRecord> records;
  std::vector<exp::RowsRecord> rows;
  SpoolFile records_out;
  SpoolFile rows_out;

  FleetReport report;
  std::size_t session_committed = 0;     ///< excludes resumed cells
  Clock::time_point next_progress = Clock::now();

  void progress(const std::string& line) {
    if (opt.progress) {
      opt.progress(line);
    } else {
      DASH_LOG_INFO << line;
    }
  }

  std::size_t heartbeat_ms() const {
    return std::max<std::size_t>(opt.lease_ms / 4, 1);
  }

  std::size_t stats_index(const std::string& name) {
    for (std::size_t i = 0; i < report.agents.size(); ++i) {
      if (report.agents[i].name == name) return i;
    }
    report.agents.push_back(AgentStats{name, 0, 0, false});
    return report.agents.size() - 1;
  }

  /// Drop every line of state the connection holds. A held lease goes
  /// back to the *front* of the queue so reassignment happens before
  /// fresh work is handed out.
  void forfeit(Conn& c, const std::string& why) {
    if (c.has_lease) {
      pending.push_front(c.lease_cell);
      running.erase(c.lease_cell);
      ++report.reassigned;
      ++report.agents[c.stats].forfeited;
      progress("fleet: agent " + c.name + " lost cell " +
               std::to_string(c.lease_cell) + " (" + why + "): reassigning");
      c.has_lease = false;
    }
    if (c.hello) report.agents[c.stats].connected = false;
    c.staged.clear();
    c.dead = true;
  }

  void snapshot_counts() {
    report.cells = cells.size();
    report.done = done.size();
    report.running = running.size();
  }

  FleetReport status_report() {
    snapshot_counts();
    FleetReport out = report;
    out.document.clear();
    out.rows_csv.clear();
    return out;
  }

  void handle_hello(Conn& c, const Message& m) {
    if (m.version != kProtocolVersion) {
      const VersionMismatchError err(m.version, kProtocolVersion);
      c.ch.send(make_error("version-mismatch", err.what()));
      c.dead = true;
      return;
    }
    if (m.spec_hash != hash) {
      const SpecMismatchError err(m.spec_hash, hash);
      c.ch.send(make_error("spec-mismatch", err.what()));
      c.dead = true;
      return;
    }
    c.hello = true;
    c.name = m.agent.empty() ? "agent" : m.agent;
    c.stats = stats_index(c.name);
    report.agents[c.stats].connected = true;
    c.ch.send(make_welcome(cells.size(), heartbeat_ms(), opt.rows));
    progress("fleet: agent " + c.name + " joined (" +
             std::to_string(done.size()) + "/" +
             std::to_string(cells.size()) + " cells done)");
  }

  void commit(Conn& c, std::size_t cell, const std::string& record_line) {
    exp::ShardRecord rec;
    if (!exp::parse_shard_line(record_line, &rec) || rec.cell != cell) {
      throw FrameError("malformed result record for cell " +
                       std::to_string(cell));
    }
    if (rec.spec_hash != hash) {
      throw SpecMismatchError(rec.spec_hash, hash);
    }
    if (c.has_lease && c.lease_cell == cell) c.has_lease = false;
    const auto it = done.find(cell);
    if (it != done.end()) {
      if (it->second != rec.group_json) {
        throw std::invalid_argument(
            "fleet: two agents produced different results for cell " +
            std::to_string(cell) + " -- determinism violated");
      }
      ++report.duplicates;
      c.staged.erase(cell);
      return;
    }
    // Rows first: the record line is the commit point (resume keeps a
    // cell only once its record landed; orphan rows are harmless
    // identical duplicates to merged_rows).
    const auto staged = c.staged.find(cell);
    if (staged != c.staged.end()) {
      for (const std::string& line : staged->second) {
        exp::RowsRecord row;
        if (!exp::parse_rows_line(line, &row) || row.cell != cell) {
          throw FrameError("malformed rows line for cell " +
                           std::to_string(cell));
        }
        rows.push_back(std::move(row));
        rows_out.write_line(line);
      }
      c.staged.erase(staged);
    }
    records_out.write_line(exp::shard_line(rec));
    done.emplace(cell, rec.group_json);
    records.push_back(std::move(rec));
    running.erase(cell);
    const auto in_queue = std::find(pending.begin(), pending.end(), cell);
    if (in_queue != pending.end()) pending.erase(in_queue);
    ++session_committed;
    ++report.agents[c.stats].done;
    progress("fleet: cell " + std::to_string(cell) + " committed by " +
             c.name + " (" + std::to_string(done.size()) + "/" +
             std::to_string(cells.size()) + ")");
  }

  void handle(Conn& c, const Message& m) {
    if (m.type == MessageType::kHello) {
      handle_hello(c, m);
      return;
    }
    if (m.type == MessageType::kStatus) {
      c.ch.send(make_report(render_status(status_report())));
      return;
    }
    if (!c.hello) {
      c.ch.send(make_error("protocol", "say hello first"));
      c.dead = true;
      return;
    }
    if (c.has_lease) c.deadline = Clock::now() +
                                  std::chrono::milliseconds(opt.lease_ms);
    switch (m.type) {
      case MessageType::kClaim:
        c.claim_pending = true;
        break;
      case MessageType::kHeartbeat:
        break;
      case MessageType::kRows: {
        auto& lines = c.staged[m.cell];
        lines.insert(lines.end(), m.lines.begin(), m.lines.end());
        break;
      }
      case MessageType::kResult:
        commit(c, m.cell, m.record);
        break;
      case MessageType::kShutdown:
        forfeit(c, "agent said goodbye");
        break;
      case MessageType::kError:
        progress("fleet: agent " + c.name + " reported error " + m.code +
                 ": " + m.message);
        forfeit(c, "agent error " + m.code);
        break;
      default:
        c.ch.send(make_error("protocol", "unexpected " + type_name(m.type) +
                                             " from an agent"));
        forfeit(c, "protocol error");
    }
  }

  /// Hand pending cells to claim-pending agents (FIFO over the
  /// connection list); tell idle claimants to shut down once the grid
  /// has no work left to hand out.
  void grant_pass() {
    for (auto& cp : conns) {
      Conn& c = *cp;
      if (c.dead || !c.claim_pending) continue;
      if (!pending.empty()) {
        const std::size_t cell = pending.front();
        pending.pop_front();
        if (!c.ch.send(make_grant(cell))) {
          pending.push_front(cell);
          forfeit(c, "send failed");
          continue;
        }
        c.claim_pending = false;
        c.has_lease = true;
        c.lease_cell = cell;
        c.deadline = Clock::now() + std::chrono::milliseconds(opt.lease_ms);
        running.insert(cell);
        progress("fleet: cell " + std::to_string(cell) + " leased to " +
                 c.name);
      } else if (done.size() == cells.size()) {
        c.ch.send(make_shutdown("grid complete"));
        c.claim_pending = false;
        c.dead = true;
      }
      // else: no cell free yet -- the claim stays pending until a
      // lease is forfeited or the grid completes.
    }
  }

  void reap_expired() {
    const auto now = Clock::now();
    for (auto& cp : conns) {
      Conn& c = *cp;
      if (!c.dead && c.has_lease && now >= c.deadline) {
        c.ch.send(make_error("protocol", "lease expired"));
        forfeit(c, "lease expired after " + std::to_string(opt.lease_ms) +
                       "ms of silence");
      }
    }
  }

  void drain(Conn& c) {
    while (!c.dead) {
      std::optional<Message> m;
      try {
        m = c.ch.next();
      } catch (const FrameError& e) {
        c.ch.send(make_error("protocol", e.what()));
        forfeit(c, std::string("corrupt frame: ") + e.what());
        return;
      }
      if (!m) return;
      try {
        handle(c, *m);
      } catch (const FrameError& e) {
        c.ch.send(make_error("protocol", e.what()));
        forfeit(c, e.what());
        return;
      }
    }
  }

  /// Load the resume manifest, keeping only records of this spec and
  /// rows of committed cells; rewrite both spools canonically so a
  /// torn final line from the previous serve disappears.
  void load_manifest() {
    const std::string rec_path = records_path(opt.state_dir);
    if (std::filesystem::exists(rec_path)) {
      for (exp::ShardRecord& rec : exp::load_shard_file(rec_path)) {
        if (rec.spec_hash != hash) {
          throw std::invalid_argument(
              "resume manifest " + rec_path + " is for spec " +
              rec.spec_hash + ", not " + hash +
              " -- point --state-dir somewhere fresh");
        }
        if (rec.cell >= cells.size()) {
          throw std::invalid_argument("resume manifest cell " +
                                      std::to_string(rec.cell) +
                                      " is out of range");
        }
        if (done.count(rec.cell)) continue;
        done.emplace(rec.cell, rec.group_json);
        records.push_back(std::move(rec));
      }
    }
    const std::string rows_file = rows_path(opt.state_dir);
    if (opt.rows && std::filesystem::exists(rows_file)) {
      for (exp::RowsRecord& row : exp::load_rows_file(rows_file)) {
        if (done.count(row.cell)) rows.push_back(std::move(row));
      }
    }
    report.resumed = done.size();
  }

  void open_spools() {
    std::filesystem::create_directories(opt.state_dir);
    if (opt.resume) load_manifest();
    records_out.open(records_path(opt.state_dir));
    for (const exp::ShardRecord& rec : records) {
      records_out.write_line(exp::shard_line(rec));
    }
    if (!records_out.ok()) {
      throw std::runtime_error("cannot write spool " +
                               records_path(opt.state_dir));
    }
    if (opt.rows) {
      rows_out.open(rows_path(opt.state_dir));
      rows_out.write_line(exp::rows_header());
      for (const exp::RowsRecord& row : rows) rows_out.write_line(row.line);
      if (!rows_out.ok()) {
        throw std::runtime_error("cannot write spool " +
                                 rows_path(opt.state_dir));
      }
    }
  }

  void broadcast_shutdown(const std::string& reason) {
    for (auto& cp : conns) {
      if (!cp->dead) cp->ch.send(make_shutdown(reason));
      cp->dead = true;
    }
    conns.clear();
  }

  void periodic_progress() {
    const auto now = Clock::now();
    if (now < next_progress) return;
    next_progress = now + kProgressPeriod;
    std::size_t connected = 0;
    for (const AgentStats& a : report.agents) connected += a.connected;
    progress("fleet: " + std::to_string(done.size()) + "/" +
             std::to_string(cells.size()) + " cells done, " +
             std::to_string(running.size()) + " running, " +
             std::to_string(pending.size()) + " pending, " +
             std::to_string(connected) + " agents connected");
  }

  FleetReport run() {
    open_spools();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (!done.count(i)) pending.push_back(i);
    }
    progress("fleet: serving " + spec.hash() + " at " +
             listener.endpoint().spec() + ": " + std::to_string(done.size()) +
             "/" + std::to_string(cells.size()) + " cells done" +
             (report.resumed ? " (resumed)" : ""));

    while (true) {
      // The checkpoint test comes first: one poll can commit the last
      // cells of the grid together with the stop_after-th, and a
      // stop_after run must then still checkpoint, not complete.
      if (opt.stop_after > 0 && session_committed >= opt.stop_after) {
        broadcast_shutdown("coordinator checkpointing");
        report.complete = false;
        progress("fleet: checkpoint after " +
                 std::to_string(session_committed) +
                 " cells; resume with --resume");
        break;
      }
      if (done.size() == cells.size()) {
        broadcast_shutdown("grid complete");
        report.complete = true;
        break;
      }

      std::vector<pollfd> fds;
      fds.push_back({listener.fd(), POLLIN, 0});
      for (auto& cp : conns) fds.push_back({cp->ch.fd(), POLLIN, 0});

      int timeout = -1;
      const auto now = Clock::now();
      auto wake = next_progress;
      for (auto& cp : conns) {
        if (!cp->dead && cp->has_lease && cp->deadline < wake) {
          wake = cp->deadline;
        }
      }
      timeout = static_cast<int>(std::max<std::int64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(wake - now)
              .count(),
          0));

      const int ready = ::poll(fds.data(), fds.size(), timeout);
      if (ready < 0 && errno != EINTR) {
        throw std::runtime_error("fleet poll failed");
      }

      if (ready > 0 && (fds[0].revents & POLLIN)) {
        conns.push_back(std::make_unique<Conn>(listener.accept()));
      }
      for (std::size_t i = 0; i < conns.size(); ++i) {
        Conn& c = *conns[i];
        const short revents =
            i + 1 < fds.size() ? fds[i + 1].revents : short{0};
        if (revents & (POLLIN | POLLHUP | POLLERR)) {
          if (!c.ch.feed()) {
            drain(c);  // frames that landed before the EOF still count
            if (!c.dead) forfeit(c, "connection closed");
          } else {
            drain(c);
          }
        }
      }
      reap_expired();
      conns.erase(std::remove_if(conns.begin(), conns.end(),
                                 [](const std::unique_ptr<Conn>& c) {
                                   return c->dead;
                                 }),
                  conns.end());
      grant_pass();
      periodic_progress();
    }
    // An agent still queued on the listener missed the shutdown; once
    // the listener closes, its handshake fails instead of waiting
    // forever on a coordinator that no longer serves (and hanging
    // whoever then joins or reaps it).
    listener.close();

    snapshot_counts();
    report.running = 0;
    if (report.complete) {
      report.document = exp::merged_document(spec, records);
      if (opt.rows) report.rows_csv = exp::merged_rows(rows);
    }
    return report;
  }
};

Coordinator::Coordinator(exp::ExperimentSpec spec, CoordinatorOptions opt) {
  spec.validate();
  impl_ = new Impl(std::move(spec), std::move(opt));
}

Coordinator::~Coordinator() { delete impl_; }

const Endpoint& Coordinator::endpoint() const {
  return impl_->listener.endpoint();
}

FleetReport Coordinator::run() { return impl_->run(); }

std::string Coordinator::records_path(const std::string& state_dir) {
  return state_dir + "/records.jsonl";
}

std::string Coordinator::rows_path(const std::string& state_dir) {
  return state_dir + "/rows.csv";
}

std::string render_status(const FleetReport& report) {
  std::string out = "fleet: " + std::to_string(report.done) + "/" +
                    std::to_string(report.cells) + " cells done, " +
                    std::to_string(report.running) + " running, " +
                    std::to_string(report.cells - report.done -
                                   report.running) +
                    " pending";
  out += "\n  resumed " + std::to_string(report.resumed) + ", reassigned " +
         std::to_string(report.reassigned) + ", duplicate results " +
         std::to_string(report.duplicates);
  for (const AgentStats& a : report.agents) {
    out += "\n  " + a.name + ": " + std::to_string(a.done) + " done, " +
           std::to_string(a.forfeited) + " forfeited" +
           (a.connected ? "" : " (gone)");
  }
  return out;
}

}  // namespace dash::fleet
