/// \file event.hpp
/// \brief Structured trace events emitted by the radio engines and the
///        protocol state machines.
///
/// One `Event` is a single observable occurrence in a run: a node waking
/// up, a transmission, a clean delivery, a collision at a listener, an
/// injected drop, a Fig. 2 phase transition, a counter reset (Alg. 1
/// l. 29), an irrevocable decision, or a leader completing an assignment
/// window (Alg. 3).  Events are plain data — 32 bytes, no ownership —
/// so the engines can emit millions per second into a sink.  On disk a
/// run is captured as URNB (bintrace.hpp, one 32-byte record per event);
/// the JSONL form (one object per line, see `append_jsonl`) is the
/// human-readable interchange format `urn_trace --export jsonl:` writes
/// and every trace consumer also reads.
///
/// This layer deliberately sits *below* radio/core: it knows nothing of
/// `radio::Message` or `core::Phase`; message types and phases are
/// carried as small integer codes whose values mirror those enums
/// (static_asserts at the emission sites pin the correspondence).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace urn::obs {

/// Discrete slot index (mirrors radio::Slot without depending on it).
using Slot = std::int64_t;
/// Node identifier (mirrors graph::NodeId without depending on it).
using NodeId = std::uint32_t;

inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// What happened.  Values are part of the on-disk schema — append only.
enum class EventKind : std::uint8_t {
  kWake = 0,       ///< node left Z and entered A₀
  kTransmit = 1,   ///< node put a message on the air
  kDelivery = 2,   ///< listener received the slot's unique transmission
  kCollision = 3,  ///< ≥2 neighbors transmitted; listener heard silence
  kDrop = 4,       ///< clean reception lost to injected fading
  kPhase = 5,      ///< Fig. 2 state transition (A_i / R / C_i entered)
  kReset = 6,      ///< counter reset to χ(P_v) (Alg. 1 l. 29)
  kDecision = 7,   ///< decided() first became true
  kServe = 8,      ///< leader finished an assignment window (Alg. 3 l. 21)
};

inline constexpr std::size_t kNumEventKinds = 9;

/// Message-type codes for kTransmit / kDelivery / kDrop events; values
/// mirror radio::MsgType (asserted where the engine emits).
enum class MsgCode : std::uint8_t {
  kCompete = 0,
  kDecided = 1,
  kAssign = 2,
  kRequest = 3,
};

/// Phase codes for kPhase events; values mirror core::Phase (asserted at
/// the protocol emission site).
enum class PhaseCode : std::uint8_t {
  kVerify = 0,
  kRequest = 1,
  kDecided = 2,
};

/// One trace event.  Field use by kind:
///
/// | kind       | node      | peer       | msg | phase | color      | value            |
/// |------------|-----------|------------|-----|-------|------------|------------------|
/// | wake       | waker     | —          | —   | —     | —          | —                |
/// | transmit   | sender    | —          | ✓   | —     | msg color  | counter (compete)|
/// | delivery   | receiver  | sender     | ✓   | —     | msg color  | —                |
/// | collision  | listener  | —          | —   | —     | —          | —                |
/// | drop       | receiver  | sender     | ✓   | —     | —          | —                |
/// | phase      | node      | —          | —   | ✓     | i of A_i/C_i | —              |
/// | reset      | node      | —          | —   | —     | verifying i | new counter     |
/// | decision   | node      | —          | —   | —     | final color (−1 n/a) | latency |
/// | serve      | leader    | requester  | —   | —     | —          | assigned tc      |
struct Event {
  Slot slot = 0;
  NodeId node = kNoNode;
  NodeId peer = kNoNode;
  std::int32_t color = -1;
  std::int64_t value = 0;
  EventKind kind = EventKind::kWake;
  std::uint8_t msg = 0;
  std::uint8_t phase = 0;

  // --- factories (keep emission sites one-liners) -----------------------

  [[nodiscard]] static Event wake(Slot s, NodeId v) {
    Event e;
    e.slot = s;
    e.node = v;
    e.kind = EventKind::kWake;
    return e;
  }
  [[nodiscard]] static Event transmit(Slot s, NodeId v, std::uint8_t msg_code,
                                      std::int32_t color,
                                      std::int64_t counter) {
    Event e;
    e.slot = s;
    e.node = v;
    e.kind = EventKind::kTransmit;
    e.msg = msg_code;
    e.color = color;
    e.value = counter;
    return e;
  }
  [[nodiscard]] static Event delivery(Slot s, NodeId receiver, NodeId sender,
                                      std::uint8_t msg_code,
                                      std::int32_t color) {
    Event e;
    e.slot = s;
    e.node = receiver;
    e.peer = sender;
    e.kind = EventKind::kDelivery;
    e.msg = msg_code;
    e.color = color;
    return e;
  }
  [[nodiscard]] static Event collision(Slot s, NodeId listener) {
    Event e;
    e.slot = s;
    e.node = listener;
    e.kind = EventKind::kCollision;
    return e;
  }
  [[nodiscard]] static Event drop(Slot s, NodeId receiver, NodeId sender,
                                  std::uint8_t msg_code) {
    Event e;
    e.slot = s;
    e.node = receiver;
    e.peer = sender;
    e.kind = EventKind::kDrop;
    e.msg = msg_code;
    return e;
  }
  [[nodiscard]] static Event phase_change(Slot s, NodeId v,
                                          std::uint8_t phase_code,
                                          std::int32_t color) {
    Event e;
    e.slot = s;
    e.node = v;
    e.kind = EventKind::kPhase;
    e.phase = phase_code;
    e.color = color;
    return e;
  }
  [[nodiscard]] static Event reset(Slot s, NodeId v, std::int32_t color,
                                   std::int64_t new_counter) {
    Event e;
    e.slot = s;
    e.node = v;
    e.kind = EventKind::kReset;
    e.color = color;
    e.value = new_counter;
    return e;
  }
  [[nodiscard]] static Event decision(Slot s, NodeId v, std::int32_t color,
                                      std::int64_t latency) {
    Event e;
    e.slot = s;
    e.node = v;
    e.kind = EventKind::kDecision;
    e.color = color;
    e.value = latency;
    return e;
  }
  [[nodiscard]] static Event serve(Slot s, NodeId leader, NodeId requester,
                                   std::int64_t tc) {
    Event e;
    e.slot = s;
    e.node = leader;
    e.peer = requester;
    e.kind = EventKind::kServe;
    e.value = tc;
    return e;
  }

  friend bool operator==(const Event&, const Event&) = default;
};

/// Stable schema name of a kind ("wake", "tx", "rx", "collision", "drop",
/// "phase", "reset", "decision", "serve").
[[nodiscard]] const char* kind_name(EventKind kind);

/// Inverse of kind_name; returns false on unknown names.
[[nodiscard]] bool kind_from_name(std::string_view name, EventKind& out);

/// Schema name of a message code ("compete", "decided", "assign",
/// "request"; "?" for out-of-range codes).
[[nodiscard]] const char* msg_name(std::uint8_t code);
[[nodiscard]] bool msg_from_name(std::string_view name, std::uint8_t& out);

/// Schema name of a phase code ("verify", "request", "decided").
[[nodiscard]] const char* phase_name(std::uint8_t code);
[[nodiscard]] bool phase_from_name(std::string_view name, std::uint8_t& out);

/// Append one JSONL line (including the trailing '\n') encoding `e`.
/// Only the fields meaningful for `e.kind` are written; see the table on
/// `Event`.  Example: {"slot":15,"kind":"rx","node":4,"peer":3,
/// "msg":"compete","color":0}
void append_jsonl(std::string& out, const Event& e);

/// Parse one JSONL line produced by `append_jsonl` (tolerates extra
/// whitespace and unknown keys).  Returns false on malformed input or an
/// unknown kind.
[[nodiscard]] bool parse_jsonl_line(std::string_view line, Event& out);

}  // namespace urn::obs
