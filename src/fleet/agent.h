// agent.h -- the `dash_lab agent` side of the fleet: connect to a
// coordinator, claim cells one at a time, compute each with
// exp::run_cell, stream the rows back (when the coordinator asked for
// them) and commit the ShardRecord line with a RESULT frame. A
// heartbeat thread keeps the lease alive while a cell computes, so
// only real death -- not slowness -- triggers reassignment.
//
// For fault-injection tests the agent honours a ChaosPlan with
// socket-shaped strikes: `kill:<cell>` SIGKILLs after the cell's ROWS
// but before its RESULT (the coordinator sees EOF and reassigns);
// `torn:<cell>` writes *half* of the RESULT frame and then SIGKILLs --
// the mid-frame EOF a crashed peer leaves behind, which the
// coordinator must treat exactly like death.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

#include "exp/spec.h"

namespace dash::fleet {

/// Crash-fault injection: the cell at which the agent dies, and how.
struct ChaosPlan {
  enum class Kind { kNone, kKill, kTorn };
  Kind kind = Kind::kNone;
  std::size_t cell = 0;  ///< the cell index whose RESULT never lands
  bool armed() const { return kind != Kind::kNone; }
};

/// Parse "kill:<cell>" / "torn:<cell>" (empty -> unarmed plan).
/// Throws std::invalid_argument on anything else.
ChaosPlan parse_chaos(const std::string& spec);

struct AgentOptions {
  /// Coordinator endpoint spec ("unix:<path>" / "tcp:[host:]<port>").
  std::string connect;
  /// Display name in coordinator logs and status; "agent-<pid>" when
  /// empty.
  std::string name;
  /// Suite pool threads per cell: 0 = hardware, 1 = sequential.
  std::size_t threads = 1;
  /// Crash-fault injection (tests); unarmed by default.
  ChaosPlan chaos;
  /// Progress sink; default logs via DASH_LOG. Set a no-op to silence.
  std::function<void(const std::string&)> progress;
};

struct AgentReport {
  std::size_t cells_done = 0;
  std::string shutdown_reason;  ///< the coordinator's SHUTDOWN text
};

/// Work until the coordinator says SHUTDOWN (returns its reason) or
/// vanishes (throws std::runtime_error -- an agent cannot tell a
/// crashed coordinator from a revoked lease, and either way its work
/// is unsalvageable). Throws FrameError when the coordinator rejects
/// the handshake (version or spec-hash mismatch) or breaks protocol,
/// and std::invalid_argument for an unparsable endpoint or spec.
AgentReport run_agent(const exp::ExperimentSpec& spec,
                      const AgentOptions& opt);

}  // namespace dash::fleet
