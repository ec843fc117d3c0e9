// protocol.h -- the dash::fleet wire protocol: length-prefixed JSON
// frames between a `dash_lab serve` coordinator and its `dash_lab
// agent` workers.
//
// Every frame is a 4-byte big-endian payload length followed by one
// JSON object whose "type" field names the message. The conversation:
//
//   agent                        coordinator
//   -----                        -----------
//   HELLO {version, spec_hash,
//          agent}           -->  verifies protocol version and spec
//                                hash (the same identity stamped into
//                                shard records)
//                           <--  WELCOME {version, cells,
//                                         heartbeat_ms, rows}
//   CLAIM {}                -->  leases the next pending cell to the
//                                agent (deferred until one is
//                                available)
//                           <--  GRANT {cell}    ... or ...
//                           <--  SHUTDOWN {reason} when the grid is
//                                complete
//   HEARTBEAT {}            -->  refreshes the agent's lease while a
//                                cell computes
//   ROWS {cell, lines}      -->  the cell's per-round rows (staged;
//                                committed only with the RESULT)
//   RESULT {cell, record}   -->  the cell's ShardRecord line; the
//                                coordinator spools it into the merge
//                                path and the agent CLAIMs again
//
//   status client                coordinator
//   -------------                -----------
//   STATUS {}               -->  progress snapshot, no HELLO needed
//                           <--  REPORT {text}
//
// Any side may send ERROR {code, message} before closing; codes mirror
// the replay layer's named errors (version-mismatch, spec-mismatch,
// protocol). A torn frame (short read, EOF mid-payload) is how a dead
// agent manifests to the coordinator -- FrameError for corruption,
// closed-channel for death -- and triggers cell reassignment, never a
// crash.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace dash::fleet {

/// Protocol version stamped into every HELLO/WELCOME; bumped on any
/// incompatible change to the frame grammar.
inline constexpr int kProtocolVersion = 1;

/// Frames larger than this are rejected as corrupt (a length prefix of
/// garbage bytes would otherwise ask for gigabytes).
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 26;

/// Malformed frame or message (bad length prefix, unparsable JSON,
/// unknown type) -- the fleet mirror of replay::TraceError.
class FrameError : public std::runtime_error {
 public:
  explicit FrameError(const std::string& what) : std::runtime_error(what) {}
};

/// HELLO carried a foreign protocol version.
class VersionMismatchError : public FrameError {
 public:
  VersionMismatchError(int got, int want);
  int peer_version() const { return peer_; }

 private:
  int peer_ = 0;
};

/// HELLO carried a spec hash that is not the coordinator's experiment.
class SpecMismatchError : public FrameError {
 public:
  SpecMismatchError(const std::string& got, const std::string& want);
};

enum class MessageType {
  kHello,
  kWelcome,
  kClaim,
  kGrant,
  kHeartbeat,
  kRows,
  kResult,
  kStatus,
  kReport,
  kShutdown,
  kError,
};

/// Wire spelling ("hello", "grant", ...).
std::string type_name(MessageType type);

/// One protocol message; fields beyond `type` are used per-type as the
/// header comment documents (unused ones stay at their defaults).
struct Message {
  MessageType type = MessageType::kHeartbeat;
  int version = kProtocolVersion;      ///< hello / welcome
  std::string spec_hash;               ///< hello
  std::string agent;                   ///< hello: display name
  std::size_t cells = 0;               ///< welcome: grid size
  std::size_t heartbeat_ms = 0;        ///< welcome: agent send cadence
  bool rows = false;                   ///< welcome: stream ROWS frames?
  std::size_t cell = 0;                ///< grant / rows / result
  std::vector<std::string> lines;      ///< rows: rows-file lines
  std::string record;                  ///< result: the ShardRecord line
  std::string text;                    ///< report / shutdown reason
  std::string code;                    ///< error code
  std::string message;                 ///< error detail
};

// ---- message (de)serialization --------------------------------------------

/// One message as its JSON payload (no length prefix, no newline).
std::string encode_message(const Message& m);

/// Strict inverse of encode_message, read with util::JsonReader.
/// Throws FrameError on anything it did not write (unknown type,
/// missing field, an integer above its field's type, trailing garbage).
Message decode_message(const std::string& payload);

// ---- framing ---------------------------------------------------------------

/// Length-prefix `payload`: 4 bytes big-endian size, then the bytes.
std::string frame_bytes(const std::string& payload);

/// Incremental frame extractor over a receive buffer: when `buf` holds
/// at least one complete frame, removes it from the front, stores its
/// payload in *out and returns true. Returns false when more bytes are
/// needed. Throws FrameError for an oversized or zero length prefix.
bool take_frame(std::string* buf, std::string* out);

// ---- convenience constructors ---------------------------------------------

Message make_hello(const std::string& spec_hash, const std::string& agent);
Message make_welcome(std::size_t cells, std::size_t heartbeat_ms, bool rows);
Message make_claim();
Message make_grant(std::size_t cell);
Message make_heartbeat();
Message make_rows(std::size_t cell, std::vector<std::string> lines);
Message make_result(std::size_t cell, std::string record);
Message make_status();
Message make_report(std::string text);
Message make_shutdown(std::string reason);
Message make_error(std::string code, std::string message);

}  // namespace dash::fleet
