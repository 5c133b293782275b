#include "obs/event.hpp"

#include <array>
#include <charconv>

#include "obs/json.hpp"

namespace urn::obs {

namespace {

constexpr std::array<const char*, kNumEventKinds> kKindNames = {
    "wake", "tx", "rx", "collision", "drop",
    "phase", "reset", "decision", "serve"};

constexpr std::array<const char*, 4> kMsgNames = {"compete", "decided",
                                                 "assign", "request"};

constexpr std::array<const char*, 3> kPhaseNames = {"verify", "request",
                                                    "decided"};

/// The JSONL fields, in the order `append_jsonl` may write them.
enum Field : std::size_t {
  kSlot, kKind, kNode, kPeer, kMsg, kColor, kValue, kPhaseName, kNumFields
};

/// `{"slot":` or `,"key":` per field, rendered by the codec's key
/// primitive on first use, so the per-event path only copies it.
const std::array<std::string, kNumFields>& field_prefixes() {
  static const std::array<std::string, kNumFields> prefixes = [] {
    constexpr std::array<const char*, kNumFields> names = {
        "slot", "kind", "node", "peer", "msg", "color", "value", "phase"};
    std::array<std::string, kNumFields> out;
    for (std::size_t i = 0; i < kNumFields; ++i) {
      out[i].push_back(i == kSlot ? '{' : ',');
      json::append_key(out[i], names[i]);
    }
    return out;
  }();
  return prefixes;
}

void field(std::string& out, const std::string& prefix, std::int64_t v) {
  out += prefix;
  json::append_int(out, v);
}

void field(std::string& out, const std::string& prefix, const char* v) {
  out += prefix;
  json::append_quoted(out, v);
}

/// An integer member, read exactly from its text (a double would lose
/// int64 slots and values).  False when absent or not an integer.
[[nodiscard]] bool int_field(const json::Doc& doc, std::string_view key,
                             std::int64_t& out) {
  const json::Entry* e = doc.find(key);
  if (e == nullptr) return false;
  const char* end = e->raw.data() + e->raw.size();
  std::int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(e->raw.data(), end, v);
  if (ec != std::errc{} || ptr != end) return false;
  out = v;
  return true;
}

/// The decoded text of a string member, or nullptr.
[[nodiscard]] const std::string* str_field(const json::Doc& doc,
                                           std::string_view key) {
  const json::Entry* e = doc.find(key);
  return e != nullptr && e->is_string() ? &e->text : nullptr;
}

}  // namespace

const char* kind_name(EventKind kind) {
  const auto idx = static_cast<std::size_t>(kind);
  return idx < kKindNames.size() ? kKindNames[idx] : "?";
}

bool kind_from_name(std::string_view name, EventKind& out) {
  for (std::size_t i = 0; i < kKindNames.size(); ++i) {
    if (name == kKindNames[i]) {
      out = static_cast<EventKind>(i);
      return true;
    }
  }
  return false;
}

const char* msg_name(std::uint8_t code) {
  return code < kMsgNames.size() ? kMsgNames[code] : "?";
}

bool msg_from_name(std::string_view name, std::uint8_t& out) {
  for (std::size_t i = 0; i < kMsgNames.size(); ++i) {
    if (name == kMsgNames[i]) {
      out = static_cast<std::uint8_t>(i);
      return true;
    }
  }
  return false;
}

const char* phase_name(std::uint8_t code) {
  return code < kPhaseNames.size() ? kPhaseNames[code] : "?";
}

bool phase_from_name(std::string_view name, std::uint8_t& out) {
  for (std::size_t i = 0; i < kPhaseNames.size(); ++i) {
    if (name == kPhaseNames[i]) {
      out = static_cast<std::uint8_t>(i);
      return true;
    }
  }
  return false;
}

void append_jsonl(std::string& out, const Event& e) {
  const auto& key = field_prefixes();
  field(out, key[kSlot], e.slot);
  field(out, key[kKind], kind_name(e.kind));
  field(out, key[kNode], static_cast<std::int64_t>(e.node));
  switch (e.kind) {
    case EventKind::kWake:
    case EventKind::kCollision:
      break;
    case EventKind::kTransmit:
      field(out, key[kMsg], msg_name(e.msg));
      field(out, key[kColor], e.color);
      if (e.msg == static_cast<std::uint8_t>(MsgCode::kCompete)) {
        field(out, key[kValue], e.value);
      }
      break;
    case EventKind::kDelivery:
      field(out, key[kPeer], static_cast<std::int64_t>(e.peer));
      field(out, key[kMsg], msg_name(e.msg));
      field(out, key[kColor], e.color);
      break;
    case EventKind::kDrop:
      field(out, key[kPeer], static_cast<std::int64_t>(e.peer));
      field(out, key[kMsg], msg_name(e.msg));
      break;
    case EventKind::kPhase:
      field(out, key[kPhaseName], phase_name(e.phase));
      field(out, key[kColor], e.color);
      break;
    case EventKind::kReset:
    case EventKind::kDecision:
      field(out, key[kColor], e.color);
      field(out, key[kValue], e.value);
      break;
    case EventKind::kServe:
      field(out, key[kPeer], static_cast<std::int64_t>(e.peer));
      field(out, key[kValue], e.value);
      break;
  }
  out.append("}\n");
}

bool parse_jsonl_line(std::string_view line, Event& out) {
  const json::Doc doc = json::parse(line);
  if (!doc.ok) return false;
  Event e;
  const std::string* kind = str_field(doc, "kind");
  if (!int_field(doc, "slot", e.slot) || kind == nullptr ||
      !kind_from_name(*kind, e.kind)) {
    return false;
  }
  std::int64_t node = 0;
  if (!int_field(doc, "node", node) || node < 0) return false;
  e.node = static_cast<NodeId>(node);

  std::int64_t peer = 0;
  if (int_field(doc, "peer", peer) && peer >= 0) {
    e.peer = static_cast<NodeId>(peer);
  }
  std::int64_t color = 0;
  if (int_field(doc, "color", color)) {
    e.color = static_cast<std::int32_t>(color);
  }
  (void)int_field(doc, "value", e.value);
  const std::string* msg = str_field(doc, "msg");
  if (msg != nullptr && !msg_from_name(*msg, e.msg)) return false;
  const std::string* phase = str_field(doc, "phase");
  if (phase != nullptr && !phase_from_name(*phase, e.phase)) return false;
  out = e;
  return true;
}

}  // namespace urn::obs
