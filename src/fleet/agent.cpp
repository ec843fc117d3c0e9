#include "fleet/agent.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exp/runner.h"
#include "fleet/channel.h"
#include "util/log.h"
#include "util/thread_pool.h"

namespace dash::fleet {

namespace {

/// The lease keeper: one background thread sending HEARTBEAT at the
/// cadence the WELCOME requested. Send failures are ignored here --
/// the main loop notices a dead coordinator on its own next send or
/// recv, with a proper error message.
class HeartbeatThread {
 public:
  HeartbeatThread(Channel& ch, std::size_t period_ms)
      : thread_([this, &ch, period_ms] {
          std::unique_lock<std::mutex> lock(mutex_);
          while (!stop_) {
            if (cv_.wait_for(lock, std::chrono::milliseconds(period_ms),
                             [this] { return stop_; })) {
              break;
            }
            ch.send(make_heartbeat());
          }
        }) {}

  ~HeartbeatThread() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

[[noreturn]] void die_by_chaos() {
  ::raise(SIGKILL);
  ::_exit(127);  // unreachable; placates [[noreturn]]
}

}  // namespace

ChaosPlan parse_chaos(const std::string& spec) {
  ChaosPlan plan;
  if (spec.empty()) return plan;
  const std::size_t colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  if (kind == "kill") {
    plan.kind = ChaosPlan::Kind::kKill;
  } else if (kind == "torn") {
    plan.kind = ChaosPlan::Kind::kTorn;
  } else {
    throw std::invalid_argument("bad chaos spec '" + spec +
                                "' (expected kill:<cell> or torn:<cell>)");
  }
  if (colon == std::string::npos || colon + 1 >= spec.size()) {
    throw std::invalid_argument("chaos spec '" + spec +
                                "' names no cell (kill:<cell>)");
  }
  std::size_t cell = 0;
  for (std::size_t i = colon + 1; i < spec.size(); ++i) {
    const char c = spec[i];
    if (c < '0' || c > '9') {
      throw std::invalid_argument("chaos spec '" + spec +
                                  "': cell must be a decimal index");
    }
    cell = cell * 10 + static_cast<std::size_t>(c - '0');
  }
  plan.cell = cell;
  return plan;
}

AgentReport run_agent(const exp::ExperimentSpec& spec,
                      const AgentOptions& opt) {
  spec.validate();
  const std::vector<exp::Cell> cells = spec.enumerate();
  const std::string name =
      opt.name.empty() ? "agent-" + std::to_string(::getpid()) : opt.name;
  const auto progress = [&](const std::string& line) {
    if (opt.progress) {
      opt.progress(line);
    } else {
      DASH_LOG_INFO << line;
    }
  };

  Channel ch = connect_channel(Endpoint::parse(opt.connect));
  if (!ch.send(make_hello(spec.hash(), name))) {
    throw std::runtime_error("coordinator closed during handshake");
  }
  std::optional<Message> welcome = ch.recv();
  if (!welcome) {
    throw std::runtime_error("coordinator closed during handshake");
  }
  if (welcome->type == MessageType::kError) {
    throw FrameError("coordinator rejected hello (" + welcome->code +
                     "): " + welcome->message);
  }
  if (welcome->type != MessageType::kWelcome) {
    throw FrameError("expected welcome, got " + type_name(welcome->type));
  }
  if (welcome->cells != cells.size()) {
    throw FrameError("coordinator serves " + std::to_string(welcome->cells) +
                     " cells, this spec enumerates " +
                     std::to_string(cells.size()));
  }
  const bool want_rows = welcome->rows;
  progress("fleet agent " + name + ": joined " + opt.connect + " (" +
           std::to_string(cells.size()) + " cells" +
           (want_rows ? ", streaming rows)" : ")"));

  std::optional<util::ThreadPool> pool;
  if (opt.threads != 1) pool.emplace(opt.threads);

  HeartbeatThread heartbeat(ch, std::max<std::size_t>(welcome->heartbeat_ms,
                                                      1));
  AgentReport report;
  while (true) {
    if (!ch.send(make_claim())) {
      throw std::runtime_error("coordinator vanished (claim send failed)");
    }
    std::optional<Message> m = ch.recv();
    if (!m) {
      throw std::runtime_error(
          "coordinator vanished (connection closed while waiting for a "
          "grant)");
    }
    if (m->type == MessageType::kHeartbeat) continue;  // echo, ignore
    if (m->type == MessageType::kShutdown) {
      report.shutdown_reason = m->text;
      progress("fleet agent " + name + ": shutdown (" + m->text + ") after " +
               std::to_string(report.cells_done) + " cells");
      return report;
    }
    if (m->type == MessageType::kError) {
      throw FrameError("coordinator error (" + m->code + "): " + m->message);
    }
    if (m->type != MessageType::kGrant) {
      throw FrameError("expected grant, got " + type_name(m->type));
    }
    const std::size_t index = m->cell;
    if (index >= cells.size()) {
      throw FrameError("granted cell " + std::to_string(index) +
                       " is out of range");
    }

    progress("fleet agent " + name + ": computing cell " +
             std::to_string(index));
    std::vector<std::string> row_lines;
    std::function<void(const exp::Cell&, const std::vector<api::RoundRow>&)>
        on_rows;
    if (want_rows) {
      on_rows = [&row_lines](const exp::Cell& cell,
                             const std::vector<api::RoundRow>& rows) {
        for (const api::RoundRow& row : rows) {
          row_lines.push_back(exp::rows_line(cell.index, row));
        }
      };
    }
    const exp::CellResult result =
        exp::run_cell(spec, cells[index], pool ? &*pool : nullptr, on_rows);
    const std::string record = exp::shard_line(exp::to_record(spec, result));

    if (want_rows && !row_lines.empty()) {
      if (!ch.send(make_rows(index, std::move(row_lines)))) {
        throw std::runtime_error("coordinator vanished (rows send failed)");
      }
    }
    if (opt.chaos.armed() && opt.chaos.cell == index) {
      // The record must not arrive whole.
      if (opt.chaos.kind == ChaosPlan::Kind::kTorn) {
        const std::string framed =
            frame_bytes(encode_message(make_result(index, record)));
        ch.send_raw(framed.substr(0, framed.size() / 2));
      }
      die_by_chaos();
    }
    if (!ch.send(make_result(index, record))) {
      throw std::runtime_error("coordinator vanished (result send failed)");
    }
    ++report.cells_done;
  }
}

}  // namespace dash::fleet
