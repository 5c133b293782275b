/// \file misaligned_engine.hpp
/// \brief The non-aligned-slots variant of the radio medium (Sect. 2).
///
/// The paper's analysis assumes slot boundaries are synchronized, but
/// notes: "all analytical results carry over to the practical non-aligned
/// case with an additional small constant factor, since each time slot can
/// overlap with at most two time-slots of a neighbor [29]."  This engine
/// implements that case so the claim can be *measured* (experiment E12):
///
///  * global time advances in **half-slots**; each node has a fixed phase
///    offset φ_v ∈ {0, 1} half-slots, so its local slot t occupies global
///    half-slots 2t+φ_v and 2t+φ_v+1 — overlapping at most two local
///    slots of any neighbor, exactly the situation in [29];
///  * a transmission occupies the sender's full local slot (two halves);
///  * a node u receives a transmission from neighbor s iff u was
///    listening (not transmitting) during *both* halves of s's
///    transmission and no other neighbor of u transmitted during either
///    half — the receiver needs the medium clear for the whole frame, but
///    does **not** need slot alignment with the sender;
///  * still no collision detection of any kind.
///
/// Protocols are reused unchanged: callbacks fire once per *local* slot,
/// and all times a protocol sees (ctx.now, decision slots, latencies) are
/// in local slots, directly comparable to radio::Engine's slot counts.
///
/// Only the medium is specific: `MisalignedEngine` is radio::Engine's
/// core on `HalfSlotMedium`, with the half-slot as its tick and one lane
/// per offset.  A lane's nodes all start their local slot at the same
/// half, so each half runs one protocol pass (`batch_slots` for SoA
/// protocols), as on the aligned engine.

#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "graph/graph.hpp"
#include "radio/engine.hpp"
#include "radio/message.hpp"
#include "radio/wakeup.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace urn::radio {

/// The half-slot medium: the tick is the global half-slot h, and lane p
/// holds the nodes of offset p, which start local slot t at half 2t + p.
class HalfSlotMedium {
 public:
  static constexpr std::size_t kLanes = 2;
  HalfSlotMedium(std::size_t n, std::vector<std::uint8_t> offsets)
      : offsets_(std::move(offsets)), heard_(n) {
    URN_CHECK(offsets_.size() == n);
  }

  [[nodiscard]] std::size_t lane(NodeId v) const { return offsets_[v]; }
  /// run() horizon: both lanes may run local slot `max_local_slots`.
  [[nodiscard]] static Slot tick_cap(Slot max_local_slots) {
    return 2 * max_local_slots + 2;
  }
  void on_admit(NodeId /*v*/) {}

  /// Resolve half h: the frames sent at half h-1 (on the air during h-1
  /// and h) complete now.  Such a frame reaches a neighbor u iff u is
  /// awake, sends no frame of its own overlapping it, and hears no other
  /// frame in either half — i.e. iff u hears exactly one frame among
  /// those sent at h-2, h-1 and h (`transmitters_`).  Two or more is a
  /// collision, counted once per corrupted (frame, receiver) pair.  The
  /// window counts are stamped with h instead of cleared, so the only
  /// cross-half state is the frames of the last two halves.
  template <typename Core>
  void resolve(Core& core, Slot h) {
    const std::size_t par = static_cast<std::size_t>(h) & 1;
    for (const auto* sent : {&sent_[0], &sent_[1], &core.transmitters_}) {
      for (const Message& m : *sent) {
        heard(h, m.sender) |= kSending;
        for (const NodeId u : core.graph_.neighbors(m.sender)) ++heard(h, u);
      }
    }
    for (const Message& m : sent_[par ^ 1]) {
      for (const NodeId u : core.graph_.neighbors(m.sender)) {
        const std::uint32_t frames = heard_[u].frames;
        if (core.status_[u] == 0 || (frames & kSending) != 0) continue;
        const Slot local = Core::local_slot(offsets_[u], h);
        if (frames == 1) {
          core.deliver(u, m, local);
        } else {
          core.collide(u, local);
        }
      }
    }
    sent_[par].assign(core.transmitters_.begin(), core.transmitters_.end());
  }

  /// The frames of the last two halves (URNC version 2 onwards); the
  /// window counts are rebuilt from them every half.
  void save(obs::postmortem::Writer& w) const {
    for (const std::vector<Message>& sent : sent_) {
      w.u64(sent.size());
      for (const Message& m : sent) {
        w.u8(static_cast<std::uint8_t>(m.type));
        w.u32(m.sender);
        w.i32(m.color_index);
        w.i64(m.counter);
        w.u32(m.target);
        w.i32(m.tc);
      }
    }
  }

  [[nodiscard]] bool load(obs::postmortem::Reader& r) {
    for (std::vector<Message>& sent : sent_) {
      const std::uint64_t count = r.u64();
      if (!r.ok() || count > offsets_.size()) return false;
      sent.clear();
      for (std::uint64_t i = 0; i < count; ++i) {
        // Braced initializers evaluate left to right: save()'s order.
        const Message m{static_cast<MsgType>(r.u8()),
                        static_cast<NodeId>(r.u32()), r.i32(), r.i64(),
                        static_cast<NodeId>(r.u32()), r.i32()};
        if (m.sender >= offsets_.size()) return false;
        sent.push_back(m);
      }
    }
    return r.ok();
  }

 private:
  /// Frames a node heard in the current window, plus kSending when it
  /// sent one of them itself; valid for half `half` only.
  struct Heard {
    Slot half = -1;
    std::uint32_t frames = 0;
  };
  static constexpr std::uint32_t kSending = 1u << 31;

  /// u's window count at half h (reset on first touch in h).
  std::uint32_t& heard(Slot h, NodeId u) {
    Heard& e = heard_[u];
    if (e.half != h) e = {h, 0};
    return e.frames;
  }

  std::vector<std::uint8_t> offsets_;  ///< phase offset = lane, per node
  std::vector<Heard> heard_;
  std::array<std::vector<Message>, 2> sent_;  ///< frames sent, by half parity
};

/// The engine on the half-slot medium.
template <NodeProtocol P, obs::EventSink S = obs::NullSink,
          typename T = obs::telemetry::NullEngineProbe>
class MisalignedEngine : public Engine<P, S, T, HalfSlotMedium> {
 public:
  /// \param offsets per-node phase offset in half-slots (each 0 or 1)
  /// \param sink    optional event sink (slots in events are *local* slots)
  MisalignedEngine(const graph::Graph& g, WakeSchedule schedule,
                   std::vector<P> nodes, std::vector<std::uint8_t> offsets,
                   std::uint64_t seed, S* sink = nullptr)
      : Engine<P, S, T, HalfSlotMedium>(
            g, std::move(schedule), std::move(nodes), seed, sink,
            HalfSlotMedium(g.num_nodes(), std::move(offsets))) {}

  /// Uniformly random offsets, the natural "unsynchronized clocks" model.
  [[nodiscard]] static std::vector<std::uint8_t> random_offsets(
      std::size_t n, Rng& rng) {
    std::vector<std::uint8_t> offsets(n);
    for (auto& o : offsets) o = static_cast<std::uint8_t>(rng.below(2));
    return offsets;
  }
};

}  // namespace urn::radio
