// End-to-end tests of the fleet coordinator/agent pair: a grid served
// to live agents over real sockets must merge to the byte-exact
// document (and rows CSV) a sequential exp::run produces -- through
// handshake rejections, silent agents whose leases expire, duplicate
// results, checkpoint/resume, and an agent SIGKILLed mid-cell (before
// its RESULT frame, or half-way through writing it).
#include "fleet/coordinator.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/runner.h"
#include "exp/spec.h"
#include "fleet/agent.h"
#include "fleet/channel.h"
#include "fleet/protocol.h"

namespace dash::fleet {
namespace {

exp::ExperimentSpec fleet_spec() {
  return exp::ExperimentSpec::parse_line(
      "name=fleet n=16|24 healer=dash|graph scenario=until-half "
      "instances=2 seed=11");
}

struct Sequential {
  std::string document;
  std::string rows;
};

/// The ground truth: the whole grid run sequentially in-process.
Sequential sequential_run(const exp::ExperimentSpec& spec) {
  exp::RunnerOptions opt;
  opt.threads = 1;
  std::vector<exp::ShardRecord> records;
  std::vector<exp::RowsRecord> rows;
  opt.on_cell = [&](const exp::CellResult& result) {
    records.push_back(exp::to_record(spec, result));
  };
  opt.on_rows = [&](const exp::Cell& cell,
                    const std::vector<api::RoundRow>& cell_rows) {
    for (const api::RoundRow& row : cell_rows) {
      exp::RowsRecord rec;
      ASSERT_TRUE(exp::parse_rows_line(exp::rows_line(cell.index, row), &rec));
      rows.push_back(rec);
    }
  };
  exp::run(spec, opt);
  Sequential out;
  out.document = exp::merged_document(spec, records);
  out.rows = exp::merged_rows(std::move(rows));
  return out;
}

/// Fresh per-test state dir under the gtest temp root.
std::string fresh_state_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "fleet_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

void quiet(const std::string&) {}

/// A worker thread running one real agent; coordinator-vanished errors
/// (expected around checkpoints) are swallowed.
std::thread agent_thread(const exp::ExperimentSpec& spec,
                         const std::string& endpoint,
                         const std::string& name) {
  return std::thread([&spec, endpoint, name] {
    AgentOptions opt;
    opt.connect = endpoint;
    opt.name = name;
    opt.progress = quiet;
    try {
      run_agent(spec, opt);
    } catch (const std::exception&) {
    }
  });
}

TEST(Fleet, ThreeAgentsMergeByteIdenticalToSequentialRun) {
  const auto spec = fleet_spec();
  const Sequential expected = sequential_run(spec);

  CoordinatorOptions copt;
  copt.state_dir = fresh_state_dir("identity");
  copt.rows = true;
  copt.progress = quiet;
  Coordinator coord(spec, copt);
  const std::string ep = coord.endpoint().spec();

  std::vector<std::thread> agents;
  for (int i = 0; i < 3; ++i) {
    agents.push_back(agent_thread(spec, ep, "worker-" + std::to_string(i)));
  }
  const FleetReport report = coord.run();
  for (std::thread& t : agents) t.join();

  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.cells, spec.enumerate().size());
  EXPECT_EQ(report.done, report.cells);
  EXPECT_EQ(report.reassigned, 0u);
  EXPECT_EQ(report.document, expected.document);
  EXPECT_EQ(report.rows_csv, expected.rows);
  std::size_t committed = 0;
  for (const AgentStats& a : report.agents) committed += a.done;
  EXPECT_EQ(committed, report.cells);

  // The spool doubles as the resume manifest: every cell's record is
  // on disk and merges to the same bytes.
  const auto spooled =
      exp::load_shard_file(Coordinator::records_path(copt.state_dir));
  EXPECT_EQ(exp::merged_document(spec, spooled), expected.document);
}

TEST(Fleet, FinishedCoordinatorStopsListening) {
  // An agent that reaches the endpoint after the last cell committed
  // would otherwise sit in the listen queue waiting for a welcome that
  // never comes, and whoever joins its thread or reaps its process
  // would hang with it.
  const auto spec = fleet_spec();
  CoordinatorOptions copt;
  copt.state_dir = fresh_state_dir("late");
  copt.progress = quiet;
  Coordinator coord(spec, copt);
  std::thread agent = agent_thread(spec, coord.endpoint().spec(), "early");
  const FleetReport report = coord.run();
  agent.join();
  EXPECT_TRUE(report.complete);
  EXPECT_THROW(connect_channel(coord.endpoint()), std::runtime_error);
}

TEST(Fleet, RejectsForeignVersionAndForeignSpecHash) {
  const auto spec = fleet_spec();
  CoordinatorOptions copt;
  copt.state_dir = fresh_state_dir("handshake");
  copt.progress = quiet;
  Coordinator coord(spec, copt);
  FleetReport report;
  std::thread server([&] { report = coord.run(); });

  {
    Channel ch = connect_channel(coord.endpoint());
    Message hello = make_hello(spec.hash(), "time-traveller");
    hello.version = kProtocolVersion + 41;
    ASSERT_TRUE(ch.send(hello));
    const auto reply = ch.recv();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, MessageType::kError);
    EXPECT_EQ(reply->code, "version-mismatch");
    EXPECT_FALSE(ch.recv().has_value());  // coordinator hung up
  }
  {
    Channel ch = connect_channel(coord.endpoint());
    ASSERT_TRUE(ch.send(make_hello("00000000deadbeef", "wrong-spec")));
    const auto reply = ch.recv();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, MessageType::kError);
    EXPECT_EQ(reply->code, "spec-mismatch");
    EXPECT_FALSE(ch.recv().has_value());
  }
  // run_agent surfaces the rejection as a FrameError naming the code.
  {
    const auto other = exp::ExperimentSpec::parse_line(
        "name=other n=16 healer=dash scenario=until-half instances=1 "
        "seed=1");
    AgentOptions aopt;
    aopt.connect = coord.endpoint().spec();
    aopt.progress = quiet;
    try {
      run_agent(other, aopt);
      FAIL() << "expected FrameError";
    } catch (const FrameError& e) {
      EXPECT_NE(std::string(e.what()).find("spec-mismatch"),
                std::string::npos);
    }
  }

  std::thread worker = agent_thread(spec, coord.endpoint().spec(), "honest");
  server.join();
  worker.join();
  EXPECT_TRUE(report.complete);
}

TEST(Fleet, SilentAgentLeaseExpiresAndCellIsReassigned) {
  const auto spec = fleet_spec();
  const Sequential expected = sequential_run(spec);

  CoordinatorOptions copt;
  copt.state_dir = fresh_state_dir("lease");
  copt.rows = true;
  copt.lease_ms = 200;  // reap quickly; heartbeats go every 50ms
  copt.progress = quiet;
  Coordinator coord(spec, copt);
  FleetReport report;
  std::thread server([&] { report = coord.run(); });

  // A hostile agent: says hello, claims a cell, then goes silent.
  Channel silent = connect_channel(coord.endpoint());
  ASSERT_TRUE(silent.send(make_hello(spec.hash(), "silent")));
  auto welcome = silent.recv();
  ASSERT_TRUE(welcome.has_value());
  ASSERT_EQ(welcome->type, MessageType::kWelcome);
  EXPECT_EQ(welcome->cells, spec.enumerate().size());
  EXPECT_TRUE(welcome->rows);
  ASSERT_TRUE(silent.send(make_claim()));
  auto grant = silent.recv();
  ASSERT_TRUE(grant.has_value());
  ASSERT_EQ(grant->type, MessageType::kGrant);
  const std::size_t hostage = grant->cell;

  // Only now let a real agent in: the hostage cell must come back to
  // it when the silent lease expires.
  std::thread worker = agent_thread(spec, coord.endpoint().spec(), "real");
  const auto reaped = silent.recv();  // the lease-expired ERROR
  ASSERT_TRUE(reaped.has_value());
  EXPECT_EQ(reaped->type, MessageType::kError);
  EXPECT_NE(reaped->message.find("lease expired"), std::string::npos);

  server.join();
  worker.join();
  EXPECT_TRUE(report.complete);
  EXPECT_GE(report.reassigned, 1u);
  EXPECT_EQ(report.document, expected.document);
  EXPECT_EQ(report.rows_csv, expected.rows);
  for (const AgentStats& a : report.agents) {
    if (a.name == "silent") {
      EXPECT_EQ(a.done, 0u);
      EXPECT_GE(a.forfeited, 1u);
    }
    if (a.name == "real") {
      EXPECT_EQ(a.done, report.cells);
    }
  }
  (void)hostage;
}

TEST(Fleet, DuplicateIdenticalResultIsCountedAndIgnored) {
  // 2-cell grid, driven entirely by a raw protocol-level client.
  const auto spec = exp::ExperimentSpec::parse_line(
      "name=dup n=16 healer=dash|graph scenario=until-half instances=1 "
      "seed=5");
  const std::vector<exp::Cell> cells = spec.enumerate();
  ASSERT_EQ(cells.size(), 2u);

  CoordinatorOptions copt;
  copt.state_dir = fresh_state_dir("dup");
  copt.progress = quiet;
  Coordinator coord(spec, copt);
  FleetReport report;
  std::thread server([&] { report = coord.run(); });

  Channel ch = connect_channel(coord.endpoint());
  ASSERT_TRUE(ch.send(make_hello(spec.hash(), "by-hand")));
  ASSERT_EQ(ch.recv()->type, MessageType::kWelcome);

  ASSERT_TRUE(ch.send(make_claim()));
  const auto grant = ch.recv();
  ASSERT_EQ(grant->type, MessageType::kGrant);
  const std::size_t first = grant->cell;
  const std::string line = exp::shard_line(
      exp::to_record(spec, exp::run_cell(spec, cells[first])));
  ASSERT_TRUE(ch.send(make_result(first, line)));
  // The same bytes again: a late duplicate, counted and ignored (the
  // grid is not yet complete, so this frame is always processed).
  ASSERT_TRUE(ch.send(make_result(first, line)));

  ASSERT_TRUE(ch.send(make_claim()));
  const auto second = ch.recv();
  ASSERT_EQ(second->type, MessageType::kGrant);
  const std::size_t other = second->cell;
  EXPECT_NE(other, first);
  ASSERT_TRUE(ch.send(make_result(
      other,
      exp::shard_line(exp::to_record(spec, exp::run_cell(spec, cells[other]))))));
  // The last commit completes the grid; the coordinator broadcasts
  // SHUTDOWN to every connection without waiting for another CLAIM.
  const auto bye = ch.recv();
  ASSERT_TRUE(bye.has_value());
  EXPECT_EQ(bye->type, MessageType::kShutdown);

  server.join();
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.duplicates, 1u);
  EXPECT_EQ(report.document, sequential_run(spec).document);
}

TEST(Fleet, StatusIsServedWithoutHelloAndRendersCounts) {
  const auto spec = fleet_spec();
  CoordinatorOptions copt;
  copt.state_dir = fresh_state_dir("status");
  copt.progress = quiet;
  Coordinator coord(spec, copt);
  FleetReport report;
  std::thread server([&] { report = coord.run(); });

  // No agents yet, so the grid cannot complete under us: the status
  // round trip is race-free.
  {
    Channel ch = connect_channel(coord.endpoint());
    ASSERT_TRUE(ch.send(make_status()));
    const auto reply = ch.recv();
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MessageType::kReport);
    EXPECT_NE(reply->text.find("0/4 cells done"), std::string::npos);
  }

  std::thread worker = agent_thread(spec, coord.endpoint().spec(), "w");
  server.join();
  worker.join();
  EXPECT_TRUE(report.complete);

  const std::string rendered = render_status(report);
  EXPECT_NE(rendered.find("4/4 cells done"), std::string::npos);
  EXPECT_NE(rendered.find("w: 4 done"), std::string::npos);
}

TEST(Fleet, CheckpointThenResumeConvergesToSequentialBytes) {
  const auto spec = fleet_spec();
  const Sequential expected = sequential_run(spec);
  const std::string dir = fresh_state_dir("resume");

  {
    CoordinatorOptions copt;
    copt.state_dir = dir;
    copt.rows = true;
    copt.stop_after = 2;  // checkpoint mid-grid
    copt.progress = quiet;
    Coordinator coord(spec, copt);
    FleetReport report;
    std::thread server([&] { report = coord.run(); });
    std::thread worker = agent_thread(spec, coord.endpoint().spec(), "w");
    server.join();
    worker.join();
    EXPECT_FALSE(report.complete);
    EXPECT_GE(report.done, 2u);
    EXPECT_LT(report.done, report.cells);
    EXPECT_TRUE(report.document.empty());
  }
  {
    CoordinatorOptions copt;
    copt.state_dir = dir;
    copt.rows = true;
    copt.resume = true;
    copt.progress = quiet;
    Coordinator coord(spec, copt);
    FleetReport report;
    std::thread server([&] { report = coord.run(); });
    std::thread worker = agent_thread(spec, coord.endpoint().spec(), "w");
    server.join();
    worker.join();
    EXPECT_TRUE(report.complete);
    EXPECT_GE(report.resumed, 2u);
    EXPECT_EQ(report.document, expected.document);
    EXPECT_EQ(report.rows_csv, expected.rows);
  }
}

TEST(Fleet, ResumeRejectsAManifestFromAnotherSpec) {
  const auto spec = fleet_spec();
  const std::string dir = fresh_state_dir("foreign");

  // Seed the state dir with a manifest stamped with a foreign hash.
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(Coordinator::records_path(dir));
    out << exp::shard_line({0, "00000000deadbeef", "{\"a\":1}"}) << "\n";
  }
  CoordinatorOptions copt;
  copt.state_dir = dir;
  copt.resume = true;
  copt.progress = quiet;
  Coordinator coord(spec, copt);
  EXPECT_THROW(coord.run(), std::invalid_argument);
}

/// The agent's own strikes, by chaos spec: `kill:1` dies after cell
/// 1's ROWS but before its RESULT, `torn:1` after writing half the
/// RESULT frame.
class FleetDeathTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FleetDeathTest, AgentKilledMidCellIsReassignedByteIdentically) {
  const auto spec = fleet_spec();
  const Sequential expected = sequential_run(spec);
  const ChaosPlan plan = parse_chaos(GetParam());
  const std::string kind = GetParam().substr(0, GetParam().find(':'));

  CoordinatorOptions copt;
  copt.state_dir = fresh_state_dir("strike_" + kind);  // own dir per case
  copt.rows = true;
  copt.progress = quiet;
  Coordinator coord(spec, copt);
  const std::string ep = coord.endpoint().spec();
  FleetReport report;
  std::thread server([&] { report = coord.run(); });

  // A forked agent with chaos armed: it commits cell 0, then SIGKILLs
  // itself at cell 1 before the coordinator holds its whole RESULT.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    AgentOptions aopt;
    aopt.connect = ep;
    aopt.name = "doomed";
    aopt.chaos = plan;
    aopt.progress = quiet;
    try {
      run_agent(spec, aopt);
    } catch (...) {
    }
    ::_exit(0);  // unreachable: the chaos strike must have fired
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  // A live agent picks up the orphaned cell; the merge must not show a
  // seam -- same bytes as the sequential run, rows included.
  std::thread worker = agent_thread(spec, ep, "survivor");
  server.join();
  worker.join();
  EXPECT_TRUE(report.complete);
  EXPECT_GE(report.reassigned, 1u);
  EXPECT_EQ(report.duplicates, 0u);
  EXPECT_EQ(report.document, expected.document);
  EXPECT_EQ(report.rows_csv, expected.rows);
}

INSTANTIATE_TEST_SUITE_P(
    Strikes, FleetDeathTest, ::testing::Values("kill:1", "torn:1"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param.substr(0, info.param.find(':'));
    });

TEST(Fleet, TornResultFrameCountsAsDeathNotCorruptState) {
  const auto spec = fleet_spec();
  const Sequential expected = sequential_run(spec);

  CoordinatorOptions copt;
  copt.state_dir = fresh_state_dir("torn");
  copt.progress = quiet;
  Coordinator coord(spec, copt);
  FleetReport report;
  std::thread server([&] { report = coord.run(); });

  // A raw client that leaves half a RESULT frame behind and hangs up:
  // the mid-frame EOF a torn write produces. The coordinator must
  // treat it exactly like death -- reassign, never commit.
  {
    Channel ch = connect_channel(coord.endpoint());
    ASSERT_TRUE(ch.send(make_hello(spec.hash(), "torn")));
    ASSERT_EQ(ch.recv()->type, MessageType::kWelcome);
    ASSERT_TRUE(ch.send(make_claim()));
    const auto grant = ch.recv();
    ASSERT_EQ(grant->type, MessageType::kGrant);
    const std::string line = exp::shard_line(exp::to_record(
        spec, exp::run_cell(spec, spec.enumerate()[grant->cell])));
    const std::string framed =
        frame_bytes(encode_message(make_result(grant->cell, line)));
    ASSERT_TRUE(ch.send_raw(framed.substr(0, framed.size() / 2)));
  }  // channel closes here, mid-frame

  std::thread worker = agent_thread(spec, coord.endpoint().spec(), "w");
  server.join();
  worker.join();
  EXPECT_TRUE(report.complete);
  EXPECT_GE(report.reassigned, 1u);
  EXPECT_EQ(report.duplicates, 0u);
  EXPECT_EQ(report.document, expected.document);
}

}  // namespace
}  // namespace dash::fleet
