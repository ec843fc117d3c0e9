#include "fleet/protocol.h"

#include <algorithm>
#include <array>
#include <utility>

#include "util/json.h"

namespace dash::fleet {

namespace {

/// The wire spellings, indexed by MessageType.
constexpr std::array<const char*, 11> kTypeNames = {
    "hello",  "welcome", "claim",  "grant",    "heartbeat", "rows",
    "result", "status",  "report", "shutdown", "error",
};

[[noreturn]] void bad(const std::string& payload, const std::string& why) {
  std::string head = payload.substr(0, 96);
  throw FrameError(std::string("malformed fleet message (") + why +
                   "): " + head);
}

}  // namespace

VersionMismatchError::VersionMismatchError(int got, int want)
    : FrameError("fleet protocol version mismatch: peer speaks v" +
                 std::to_string(got) + ", this build is v" +
                 std::to_string(want) + " -- update the older side"),
      peer_(got) {}

SpecMismatchError::SpecMismatchError(const std::string& got,
                                     const std::string& want)
    : FrameError("fleet spec hash mismatch: agent was given spec " + got +
                 ", the coordinator serves " + want +
                 " -- hand every agent the coordinator's exact spec") {}

std::string type_name(MessageType type) {
  return kTypeNames[static_cast<std::size_t>(type)];
}

// ---- message (de)serialization --------------------------------------------

std::string encode_message(const Message& m) {
  std::string out = "{\"type\":" + util::json_string(type_name(m.type));
  const auto key = [&out](const char* name) {
    out += ",\"";
    out += name;
    out += "\":";
  };
  const auto number = [&](const char* name, std::size_t value) {
    key(name);
    out += std::to_string(value);
  };
  const auto text = [&](const char* name, const std::string& value) {
    key(name);
    out += util::json_string(value);
  };
  switch (m.type) {
    case MessageType::kHello:
      number("version", static_cast<std::size_t>(m.version));
      text("spec_hash", m.spec_hash);
      text("agent", m.agent);
      break;
    case MessageType::kWelcome:
      number("version", static_cast<std::size_t>(m.version));
      number("cells", m.cells);
      number("heartbeat_ms", m.heartbeat_ms);
      number("rows", m.rows ? 1 : 0);
      break;
    case MessageType::kGrant:
      number("cell", m.cell);
      break;
    case MessageType::kRows:
      number("cell", m.cell);
      key("lines");
      out += '[';
      for (std::size_t i = 0; i < m.lines.size(); ++i) {
        if (i) out += ',';
        out += util::json_string(m.lines[i]);
      }
      out += ']';
      break;
    case MessageType::kResult:
      number("cell", m.cell);
      text("record", m.record);
      break;
    case MessageType::kReport:
    case MessageType::kShutdown:
      text("text", m.text);
      break;
    case MessageType::kError:
      text("code", m.code);
      text("message", m.message);
      break;
    case MessageType::kClaim:
    case MessageType::kHeartbeat:
    case MessageType::kStatus:
      break;
  }
  out += '}';
  return out;
}

Message decode_message(const std::string& payload) {
  Message m;
  try {
    util::JsonReader r(payload);
    r.expect("{\"type\":");
    const std::string type = r.string();
    const auto it = std::find(kTypeNames.begin(), kTypeNames.end(), type);
    if (it == kTypeNames.end()) bad(payload, "unknown type");
    m.type = static_cast<MessageType>(it - kTypeNames.begin());

    const auto key = [&r](const char* name) {
      r.expect(",\"" + std::string(name) + "\":");
    };
    switch (m.type) {
      case MessageType::kHello:
        key("version");
        m.version = r.uint<int>();
        key("spec_hash");
        m.spec_hash = r.string();
        key("agent");
        m.agent = r.string();
        break;
      case MessageType::kWelcome: {
        key("version");
        m.version = r.uint<int>();
        key("cells");
        m.cells = r.uint<std::size_t>();
        key("heartbeat_ms");
        m.heartbeat_ms = r.uint<std::size_t>();
        key("rows");
        const auto rows = r.uint<std::size_t>();
        if (rows > 1) bad(payload, "rows");
        m.rows = rows == 1;
        break;
      }
      case MessageType::kGrant:
        key("cell");
        m.cell = r.uint<std::size_t>();
        break;
      case MessageType::kRows:
        key("cell");
        m.cell = r.uint<std::size_t>();
        key("lines");
        r.expect("[");
        while (!r.consume("]")) {
          if (!m.lines.empty()) r.expect(",");
          m.lines.push_back(r.string());
        }
        break;
      case MessageType::kResult:
        key("cell");
        m.cell = r.uint<std::size_t>();
        key("record");
        m.record = r.string();
        break;
      case MessageType::kReport:
      case MessageType::kShutdown:
        key("text");
        m.text = r.string();
        break;
      case MessageType::kError:
        key("code");
        m.code = r.string();
        key("message");
        m.message = r.string();
        break;
      case MessageType::kClaim:
      case MessageType::kHeartbeat:
      case MessageType::kStatus:
        break;
    }
    r.expect("}");
    r.end();
  } catch (const util::JsonError& e) {
    bad(payload, e.what());
  }
  return m;
}

// ---- framing ---------------------------------------------------------------

std::string frame_bytes(const std::string& payload) {
  const auto size = static_cast<std::uint32_t>(payload.size());
  std::string out;
  out.reserve(payload.size() + 4);
  out += static_cast<char>((size >> 24) & 0xFF);
  out += static_cast<char>((size >> 16) & 0xFF);
  out += static_cast<char>((size >> 8) & 0xFF);
  out += static_cast<char>(size & 0xFF);
  out += payload;
  return out;
}

bool take_frame(std::string* buf, std::string* out) {
  if (buf->size() < 4) return false;
  const auto b = [&](std::size_t i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>((*buf)[i]));
  };
  const std::uint32_t size = (b(0) << 24) | (b(1) << 16) | (b(2) << 8) | b(3);
  if (size == 0 || size > kMaxFrameBytes) {
    throw FrameError("corrupt frame length prefix: " + std::to_string(size));
  }
  if (buf->size() < 4 + static_cast<std::size_t>(size)) return false;
  *out = buf->substr(4, size);
  buf->erase(0, 4 + static_cast<std::size_t>(size));
  return true;
}

// ---- convenience constructors ---------------------------------------------

Message make_hello(const std::string& spec_hash, const std::string& agent) {
  Message m;
  m.type = MessageType::kHello;
  m.version = kProtocolVersion;
  m.spec_hash = spec_hash;
  m.agent = agent;
  return m;
}

Message make_welcome(std::size_t cells, std::size_t heartbeat_ms, bool rows) {
  Message m;
  m.type = MessageType::kWelcome;
  m.version = kProtocolVersion;
  m.cells = cells;
  m.heartbeat_ms = heartbeat_ms;
  m.rows = rows;
  return m;
}

Message make_claim() {
  Message m;
  m.type = MessageType::kClaim;
  return m;
}

Message make_grant(std::size_t cell) {
  Message m;
  m.type = MessageType::kGrant;
  m.cell = cell;
  return m;
}

Message make_heartbeat() {
  Message m;
  m.type = MessageType::kHeartbeat;
  return m;
}

Message make_rows(std::size_t cell, std::vector<std::string> lines) {
  Message m;
  m.type = MessageType::kRows;
  m.cell = cell;
  m.lines = std::move(lines);
  return m;
}

Message make_result(std::size_t cell, std::string record) {
  Message m;
  m.type = MessageType::kResult;
  m.cell = cell;
  m.record = std::move(record);
  return m;
}

Message make_status() {
  Message m;
  m.type = MessageType::kStatus;
  return m;
}

Message make_report(std::string text) {
  Message m;
  m.type = MessageType::kReport;
  m.text = std::move(text);
  return m;
}

Message make_shutdown(std::string reason) {
  Message m;
  m.type = MessageType::kShutdown;
  m.text = std::move(reason);
  return m;
}

Message make_error(std::string code, std::string message) {
  Message m;
  m.type = MessageType::kError;
  m.code = std::move(code);
  m.message = std::move(message);
  return m;
}

}  // namespace dash::fleet
