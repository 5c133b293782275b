/// \file engine.hpp
/// \brief The slotted radio-medium simulator (the unstructured radio
///        network model of Sect. 2).
///
/// Collision semantics, implemented exactly as specified:
///  * time is divided into discrete synchronized slots;
///  * in each slot a node either transmits or listens, never both;
///  * a node receives a message iff **exactly one** of its (open-)
///    neighborhood members transmits in that slot and the node itself is
///    listening — two or more transmitting neighbors collide silently,
///    and **no collision detection** exists: the receiver cannot tell a
///    collision from silence, and the sender learns nothing;
///  * sleeping nodes (before their wake slot) neither send nor receive.
///
/// The engine is a class template over the node-protocol type so that the
/// per-slot loop is fully inlined (the simulator sustains tens of millions
/// of node-slots per second on one core).  Protocols implement:
///
///     void on_wake(SlotContext&);
///     std::optional<Message> on_slot(SlotContext&);   // state step + tx decision
///     void on_receive(SlotContext&, const Message&);  // end-of-slot delivery
///     bool decided() const;                           // irrevocable color fixed
///
/// Within a slot the engine (1) wakes due nodes, (2) calls `on_slot` on all
/// awake nodes collecting transmissions, (3) resolves the medium, and
/// (4) delivers at most one message per listening node via `on_receive`.
/// State changes made in `on_receive` therefore take effect in the next
/// slot, matching the paper's slot granularity.  Only step (3) depends on
/// slot alignment: it is the `Medium` policy (`AlignedMedium` here, the
/// half-slot medium in misaligned_engine.hpp) of one shared engine core.
///
/// **Observability.**  The engine takes a second template parameter, the
/// run's observer: an `obs::EventSink`, defaulting to `obs::NullSink`.
/// With the default every engine emission site is discarded at compile
/// time (`if constexpr`) and protocols see a null hook, so the hot loop is
/// the pre-tracing loop plus at most a null test per transmission —
/// m1_micro pins this.  With a real sink the engine emits wake / transmit
/// / delivery / collision / drop / decision events, and hands protocols a
/// hook in `SlotContext` through which they emit their own (phase
/// transitions, counter resets, serves, and the transmit events of a
/// `batch_slots` pass).  An observer that also defines `on_tick(engine,
/// tick)` is offered the engine at the top of every `run()` iteration;
/// the runner's postmortem checkpoints ride on that hook.
///
/// **Timing.**  The third parameter is the telemetry probe, the one
/// timing seam: an enabled `obs::telemetry::EngineProbe` receives each
/// tick's counts and times the tick's four phases — wake admission, the
/// protocol pass, medium resolution with delivery, the decision scan —
/// on its clock, as the `engine.layer.*.ns` counters, on traced and
/// untraced engines alike.  The default `NullEngineProbe` compiles both
/// away.

#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <type_traits>
#include <vector>

#include "graph/graph.hpp"
#include "obs/event.hpp"
#include "obs/postmortem.hpp"
#include "obs/sink.hpp"
#include "obs/telemetry.hpp"
#include "radio/message.hpp"
#include "radio/wakeup.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace urn::radio {

// The obs layer mirrors MsgType as small integer codes; keep them in sync.
static_assert(static_cast<std::uint8_t>(MsgType::kCompete) ==
              static_cast<std::uint8_t>(obs::MsgCode::kCompete));
static_assert(static_cast<std::uint8_t>(MsgType::kDecided) ==
              static_cast<std::uint8_t>(obs::MsgCode::kDecided));
static_assert(static_cast<std::uint8_t>(MsgType::kAssign) ==
              static_cast<std::uint8_t>(obs::MsgCode::kAssign));
static_assert(static_cast<std::uint8_t>(MsgType::kRequest) ==
              static_cast<std::uint8_t>(obs::MsgCode::kRequest));

/// Per-node, per-slot view handed to protocol callbacks.
struct SlotContext {
  NodeId id = graph::kInvalidNode;
  Slot now = 0;        ///< global slot index
  Rng* rng = nullptr;  ///< per-node deterministic stream

  /// Optional event hook (set by a tracing engine; null when tracing is
  /// off).  Protocols emit their protocol-level events through this.
  void* events_sink = nullptr;
  void (*events_fn)(void*, const obs::Event&) = nullptr;

  [[nodiscard]] Rng& random() const { return *rng; }

  /// True when a sink is attached (protocols may skip event construction).
  [[nodiscard]] bool tracing() const { return events_fn != nullptr; }
  void emit(const obs::Event& e) const {
    if (events_fn != nullptr) events_fn(events_sink, e);
  }
};

/// The trace event for message `m` going on the air in slot `now` — the
/// one definition shared by the engine's scalar loop and SoA protocols'
/// `batch_slots` passes.
[[nodiscard]] inline obs::Event transmit_event(Slot now, const Message& m) {
  return obs::Event::transmit(now, m.sender, static_cast<std::uint8_t>(m.type),
                              m.color_index, m.counter);
}

/// Node-protocol concept; see file comment for callback semantics.
template <typename P>
concept NodeProtocol = requires(P p, const P cp, SlotContext& ctx,
                                const Message& msg) {
  { p.on_wake(ctx) };
  { p.on_slot(ctx) } -> std::same_as<std::optional<Message>>;
  { p.on_receive(ctx, msg) };
  { cp.decided() } -> std::convertible_to<bool>;
};

// ---- SoA hot-state discovery ----------------------------------------------
// Data-oriented protocols keep their per-slot state in an engine-owned
// structure-of-arrays block instead of scattered across the node objects
// (core::ColoringHot is the exemplar).  A protocol opts in by declaring
//
//     using Hot = <block type>;               // constructible from n
//     void attach_hot(Hot*);                  // point a node at the block
//     static void batch_slots(Hot&, const NodeId* awake, std::size_t count,
//                             const SlotContext& slot, P* nodes, Rng* rngs,
//                             std::vector<Message>& out);
//     bool Hot::decided(NodeId) const;        // node-object-free test
//
// The engine then (a) owns one block per run and attaches every node to
// it at construction, and (b) replaces the per-node `on_slot` loop with
// one `batch_slots` call per lane and tick, traced or not, on either
// medium.  `slot` carries the lane's local slot and the engine's event
// hook (null when untraced); the pass emits each transmit event
// (`transmit_event`) right after appending its message, and hands the
// hook to every per-node context it builds, so the event stream is the
// scalar loop's, byte for byte.  The pass must be bit-identical to the
// scalar loop (the protocol owns that proof; the reference-diff suites,
// which call `on_slot` per node, are the arbiters).  Protocols without a
// `Hot` alias get `NoHotState` and the scalar loop.

/// Placeholder hot block for protocols without SoA state (zero size, the
/// attach/batch paths compile away behind `if constexpr`).
struct NoHotState {
  explicit NoHotState(std::size_t /*n*/) {}
};

template <typename P, typename = void>
struct HotStateOfT {
  using type = NoHotState;
};
template <typename P>
struct HotStateOfT<P, std::void_t<typename P::Hot>> {
  using type = typename P::Hot;
};

/// The protocol's SoA hot-block type (NoHotState when it has none).
template <typename P>
using HotStateOf = typename HotStateOfT<P>::type;

/// True when P declared an SoA hot block the engines must own and attach.
template <typename P>
inline constexpr bool kHasHotState =
    !std::is_same_v<HotStateOf<P>, NoHotState>;

/// Aggregate medium statistics for one run.
struct RunStats {
  Slot slots_run = 0;
  std::uint64_t transmissions = 0;
  /// Listening-node slot pairs where exactly one neighbor transmitted.
  std::uint64_t deliveries = 0;
  /// Listening-node slot pairs where two or more neighbors transmitted;
  /// on the half-slot medium, corrupted (frame, receiver) pairs instead.
  std::uint64_t collisions = 0;
  /// Otherwise-clean receptions lost to injected fading (MediumOptions).
  std::uint64_t dropped = 0;
  bool all_decided = false;
};

/// Failure-injection knobs for the medium (all off by default; with the
/// defaults the engine is bit-identical to the ideal collision-only
/// medium, which the differential tests rely on).
struct MediumOptions {
  /// Probability that an otherwise-successful reception is lost anyway —
  /// a crude model of fading/shadowing, which the BIG model explicitly
  /// wants to accommodate (Sect. 2).
  double drop_probability = 0.0;
};

/// The aligned medium of Sect. 2: one lane, whose slot is the tick, plus
/// failure injection (`MediumOptions` drops, `Engine::deactivate`).
class AlignedMedium {
 public:
  static constexpr std::size_t kLanes = 1;
  AlignedMedium(std::size_t n, std::uint64_t seed, MediumOptions options)
      : options_(options), rng_(mix_seed(seed, 0xFADEDull)) {
    URN_CHECK(n <= kMaxNodes);
    URN_CHECK(options_.drop_probability >= 0.0 &&
              options_.drop_probability < 1.0);
    rx_.assign(n, 0);
  }

  [[nodiscard]] static std::size_t lane(NodeId /*v*/) { return 0; }
  [[nodiscard]] static Slot tick_cap(Slot max_slots) { return max_slots; }
  void on_admit(NodeId v) { rx_[v] = kRxAwake; }  // a listening candidate
  void deactivate(NodeId v) { rx_[v] = 0; }       // no longer one

  /// Resolve the medium in ONE pass: classify each touched live listener
  /// as clean (exactly one transmitting neighbor, with the source index)
  /// or collided, in first-touch order.  First-touch order here equals
  /// the first-visit order of the old second transmitter×neighbor pass
  /// (both walk the same nested sequence), so delivery / collision /
  /// drop events and medium-RNG draws keep the exact same order —
  /// bit-identical results, half the edge traversals.  The whole
  /// per-listener medium state lives in ONE 4-byte `rx_` word (awake
  /// flag | clean/collided/self | source), so the ~Δ random accesses per
  /// transmitter touch one cache line each instead of the three the old
  /// count/stamp/src arrays cost; the touched entries are wiped at the
  /// end of the slot (touched_ and the transmitter list enumerate
  /// exactly the dirtied words), which replaces the epoch stamps
  /// entirely.  Sleeping and dead neighbors are skipped outright: their
  /// state can never be read.
  template <typename Core>
  void resolve(Core& core, Slot now) {
    const std::vector<Message>& transmitters = core.transmitters_;
    touched_.clear();
    for (std::uint32_t t = 0; t < transmitters.size(); ++t) {
      const NodeId sender = transmitters[t].sender;
      for (NodeId u : core.graph_.neighbors(sender)) {
        const std::uint32_t w = rx_[u];
        if (w == kRxAwake) {  // listening, untouched so far
          rx_[u] = kRxAwake | kRxClean | t;  // sole candidate sender
          touched_.push_back(u);
        } else if ((w & kRxStateMask) == kRxClean) {
          rx_[u] = kRxAwake | kRxCollided;
        }
        // else: sleeping/dead (no awake bit), already collided, or a
        // transmitter (kRxSelf) — nothing can change.
      }
      // A transmitting node cannot receive in the same slot.
      rx_[sender] = kRxAwake | kRxSelf;
    }

    // Deliver to listeners with exactly one active neighbor.  Each
    // touched listener appears once; states are final by now.
    for (const NodeId u : touched_) {
      const std::uint32_t w = rx_[u];
      if ((w & kRxStateMask) == kRxClean) {
        const Message& msg = transmitters[w & kRxSrcMask];
        if (options_.drop_probability > 0.0 &&
            rng_.chance(options_.drop_probability)) {
          ++core.stats_.dropped;  // fading: clean reception lost anyway
          core.emit([&] {
            return obs::Event::drop(now, u, msg.sender,
                                    static_cast<std::uint8_t>(msg.type));
          });
        } else {
          core.deliver(u, msg, now);
        }
      } else if ((w & kRxStateMask) == kRxCollided) {
        core.collide(u, now);
      }
      rx_[u] = kRxAwake;  // wipe for the next slot (still listening)
    }
    // Transmitters dirtied their own rx_ word too (kRxSelf); they are
    // live and awake by construction, so restore the bare awake flag.
    for (const Message& m : transmitters) rx_[m.sender] = kRxAwake;
  }

  void save(obs::postmortem::Writer& w) const {
    obs::postmortem::write_rng(w, rng_);
  }
  [[nodiscard]] bool load(obs::postmortem::Reader& r) {
    return obs::postmortem::read_rng(r, rng_);
  }

  /// Largest supported node count: `rx_` stores a transmitter index
  /// (< n) in 29 bits.  Checked at construction, so the limit holds in
  /// Release builds.
  static constexpr std::size_t kMaxNodes = std::size_t{1} << 29;

 private:
  // Layout of the per-node medium word rx_: the top bit is the persistent
  // "live awake listener" flag (maintained on wake / deactivate /
  // load_state), the next two bits are the per-slot touch state, and the
  // low 29 bits hold the transmitter index while the state is kRxClean.
  // Between slots every word is either 0 or exactly kRxAwake.
  static constexpr std::uint32_t kRxAwake = 1u << 31;
  static constexpr std::uint32_t kRxClean = 1u << 29;
  static constexpr std::uint32_t kRxCollided = 2u << 29;
  static constexpr std::uint32_t kRxSelf = 3u << 29;
  static constexpr std::uint32_t kRxStateMask = 3u << 29;
  static constexpr std::uint32_t kRxSrcMask = (1u << 29) - 1;
  static_assert(kMaxNodes - 1 == kRxSrcMask);

  MediumOptions options_;
  Rng rng_;
  /// Per-node medium word: persistent awake flag + per-slot touch state
  /// (see the kRx* constants).  The dirtied entries are wiped at the end
  /// of every slot, so no wholesale clear is ever needed.
  std::vector<std::uint32_t> rx_;
  std::vector<NodeId> touched_;  ///< live listeners touched this slot
};

/// The slotted radio engine, one core for both slot alignments: nodes,
/// RNG streams, hot block, wake admission, live lists, protocol pass,
/// decision scan, `run()` and serialization.  Alignments differ only in
/// the `Medium` policy (`AlignedMedium`, `HalfSlotMedium`): `kLanes`,
/// `lane(v)`, `tick_cap`, `on_admit`, `resolve` and `save`/`load`.  A
/// *tick* is one engine step; node v in lane q = lane(v) starts local
/// slot t at tick kLanes·t + q, so each tick runs one lane's awake list
/// through one protocol pass; `resolve` then reads `transmitters_` and
/// reports receptions through `deliver` / `collide`.
///
/// Holds the graph **by reference** (hot-loop performance): the graph
/// must outlive the engine.  `S` is the run's observer: an event sink,
/// optionally with an `on_tick(engine, tick)` hook that `run()` calls at
/// the top of every loop iteration (positions are ticks); the default
/// `obs::NullSink` compiles all tracing away.  `T` is the telemetry probe
/// (`obs::telemetry::EngineProbe`), the count and phase-time seam: the
/// default `NullEngineProbe` compiles the per-tick sampling and the
/// layer clock away the same way, and an enabled probe on a NullSink
/// engine samples the untraced loop.
template <NodeProtocol P, obs::EventSink S = obs::NullSink,
          typename T = obs::telemetry::NullEngineProbe,
          typename Medium = AlignedMedium>
class Engine {
  static constexpr std::size_t kLanes = Medium::kLanes;
  static constexpr bool kAligned = std::same_as<Medium, AlignedMedium>;
  friend Medium;  // resolve() reads the tick's state, reports receptions

 public:
  /// The aligned engine.
  /// \pre nodes.size() == g.num_nodes() == schedule.size()
  /// \param sink event sink; may be null even for enabled sink types (no
  ///        events are emitted then).  The sink must outlive the engine.
  Engine(const graph::Graph& g, WakeSchedule schedule, std::vector<P> nodes,
         std::uint64_t seed, MediumOptions medium = {}, S* sink = nullptr)
    requires kAligned
      : Engine(g, std::move(schedule), std::move(nodes), seed, sink,
               AlignedMedium(g.num_nodes(), seed, medium)) {}

  // Nodes point into the engine-owned hot block; a copied or moved
  // engine would leave them aimed at the source's block.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Attach a telemetry probe: each tick then feeds one aggregate
  /// `SlotSample` (counts only — no events, no RNG use; `slots` counts
  /// local slots) to the probe, and times the tick's four phases on the
  /// probe's layer clock (`engine.layer.*.ns`).  Only meaningful on
  /// probe-enabled instantiations; with the default `NullEngineProbe` the
  /// sampling sites compile away.  The probe must outlive the engine.
  /// `run()` brackets execution with `begin_run`/`end_run`; step()-driven
  /// users bracket it themselves.
  void set_telemetry(T* probe) { probe_ = probe; }

  /// Advance the simulation one tick.
  void step() {
    const Slot tick = tick_;
    const std::size_t lane = static_cast<std::size_t>(tick) % kLanes;
    std::vector<NodeId>& awake = awake_[lane];
    const Slot now = local_slot(lane, tick);

    // Telemetry baselines for this tick's deltas (dead locals on
    // probe-disabled instantiations; the optimizer drops them).
    [[maybe_unused]] RunStats probe_before;
    [[maybe_unused]] std::size_t probe_wakes_before = 0;
    [[maybe_unused]] std::size_t probe_pending_before = 0;
    if constexpr (T::kEnabled) {
      if (probe_ != nullptr) {
        probe_before = stats_;
        probe_wakes_before = next_wake_;
        probe_pending_before = pending_live_;
        probe_->begin_tick();
      }
    }

    // (1) Wake due nodes: those whose first tick is now, all of this
    // tick's lane.  A node deactivated before its wake slot still wakes
    // (events + on_wake fire, matching the pre-compaction engine) but
    // never enters the live lists.
    while (next_wake_ < wake_order_.size() &&
           first_tick(wake_order_[next_wake_]) <= tick) {
      const NodeId v = wake_order_[next_wake_++];
      status_[v] |= kAwakeBit;
      if (status_[v] == kAwakeBit) {
        awake.push_back(v);
        undecided_[lane].push_back(v);
        medium_.on_admit(v);
      }
      emit([&] { return obs::Event::wake(now, v); });
      SlotContext ctx = context(v, now);
      nodes_[v].on_wake(ctx);
    }
    if (!id_ordered_ && next_wake_ >= wake_order_.size()) {
      // From the slot the last node wakes (inclusive), iterate nodes in
      // ascending id: under random schedules wake order is an arbitrary
      // permutation, and re-sorting once turns every later per-slot
      // sweep into a linear memory walk over nodes_/rngs_.  This is part
      // of the engine's documented iteration order — (wake slot, id)
      // while nodes are still waking, id-ascending once all are awake —
      // which the reference engine mirrors (it pins the medium-RNG draw
      // sequence under drop_probability > 0; aggregate stats and
      // per-node RNG streams are order-independent).  It also keeps the
      // `batch_slots` contract that a full awake list is id-ordered.
      for (std::size_t q = 0; q < kLanes; ++q) {
        std::sort(awake_[q].begin(), awake_[q].end());
        std::sort(undecided_[q].begin(), undecided_[q].end());
      }
      id_ordered_ = true;
    }

    // (2) Collect transmissions.  The awake list holds only live awake
    // nodes (deactivate compacts), so no per-node dead check remains.
    // SoA protocols run the whole list through one `batch_slots` call
    // (classify over the hot arrays, batched Bernoulli draws, messages
    // and events in scalar order — bit-identical by the protocol's
    // contract), with the event hook in the slot context when traced.
    // Protocols without a hot block take the per-node loop.
    probe_lap(obs::telemetry::kLayerWake);
    transmitters_.clear();
    if constexpr (kHasHotState<P>) {
      P::batch_slots(hot_, awake.data(), awake.size(), slot_context(now),
                     nodes_.data(), rngs_.data(), transmitters_);
    } else {
      for (NodeId v : awake) {
        SlotContext ctx = context(v, now);
        if (std::optional<Message> msg = nodes_[v].on_slot(ctx)) {
          URN_DCHECK(msg->sender == v);
          transmitters_.push_back(*msg);
          emit([&] { return transmit_event(now, *msg); });
        }
      }
    }
    stats_.transmissions += transmitters_.size();
    probe_lap(obs::telemetry::kLayerProtocol);

    // (3) Resolve the medium and deliver.
    medium_.resolve(*this, tick);
    probe_lap(obs::telemetry::kLayerMedium);

    // (4) Track decisions, each lane at its own local slot, compacting
    // decided nodes out of the scan so its cost follows the number of
    // still-undecided nodes, not n.  SoA protocols answer `decided`
    // straight from the hot block, so the scan never touches a node
    // object.
    for (std::size_t q = 0; q < kLanes; ++q) {
      std::vector<NodeId>& undecided = undecided_[q];
      const Slot at = local_slot(q, tick);
      std::size_t keep = 0;
      for (std::size_t i = 0; i < undecided.size(); ++i) {
        const NodeId v = undecided[i];
        const bool is_decided = [&] {
          if constexpr (kHasHotState<P>) return hot_.decided(v);
          else return nodes_[v].decided();
        }();
        if (is_decided) {
          decision_slot_[v] = at;
          --pending_live_;
          emit([&] {
            return obs::Event::decision(at, v, /*color=*/-1,
                                        at - schedule_.wake_slot(v));
          });
        } else {
          undecided[keep++] = v;
        }
      }
      undecided.resize(keep);
    }
    probe_lap(obs::telemetry::kLayerDecide);

    ++tick_;
    stats_.slots_run = tick_ / static_cast<Slot>(kLanes);

    if constexpr (T::kEnabled) {
      if (probe_ != nullptr) {
        obs::telemetry::SlotSample s;
        s.slots = static_cast<std::uint64_t>(stats_.slots_run -
                                             probe_before.slots_run);
        s.active = awake.size();
        s.wakes = next_wake_ - probe_wakes_before;
        s.decisions = probe_pending_before - pending_live_;
        s.transmissions = transmitters_.size();
        s.deliveries = stats_.deliveries - probe_before.deliveries;
        s.collisions = stats_.collisions - probe_before.collisions;
        s.drops = stats_.dropped - probe_before.dropped;
        for (const auto& u : undecided_) s.undecided += u.size();
        probe_->on_slot(s);
      }
    }
  }

  /// Run until every node is awake and has decided, or `max_slots` local
  /// slots elapse.  Returns the statistics so far; `all_decided` reports
  /// success.
  ///
  /// Empty wake gaps are fast-forwarded: while no node is awake and the
  /// next wake lies in the future, stepping consumes no RNG and changes
  /// no state, so `tick_` jumps straight to the next wake (or the cap).
  /// The jump requires a pending wake — it cannot fire when the lists
  /// are empty because every woken node died, where the old loop would
  /// stop after one more step via `all_decided`.
  RunStats run(Slot max_slots) {
    URN_CHECK(max_slots > 0);
    if constexpr (T::kEnabled) {
      if (probe_ != nullptr) probe_->begin_run();
    }
    const Slot cap = Medium::tick_cap(max_slots);
    while (tick_ < cap) {
      // The observer's tick hook (postmortem checkpoints), if it has one;
      // it only reads state, so a hooked run stays bit-identical.
      if constexpr (requires { sink_->on_tick(*this, tick_); }) {
        if (sink_ != nullptr) sink_->on_tick(*this, tick_);
      }
      const bool idle = std::all_of(awake_.begin(), awake_.end(),
                                    [](const auto& a) { return a.empty(); });
      if (idle && next_wake_ < wake_order_.size()) {
        const Slot next = first_tick(wake_order_[next_wake_]);
        if (next > tick_) {
          [[maybe_unused]] const Slot slots_before = stats_.slots_run;
          tick_ = next < cap ? next : cap;
          stats_.slots_run = tick_ / static_cast<Slot>(kLanes);
          if constexpr (T::kEnabled) {
            // Fast-forwarded slots still count toward engine.slots so
            // the exported total matches stats_.slots_run exactly.
            if (probe_ != nullptr && stats_.slots_run > slots_before) {
              obs::telemetry::SlotSample s;
              s.slots =
                  static_cast<std::uint64_t>(stats_.slots_run - slots_before);
              probe_->on_slot(s);
            }
          }
          if (tick_ >= cap) break;
        }
      }
      step();
      if (all_decided()) break;
    }
    stats_.all_decided = all_decided();
    flush();
    if constexpr (T::kEnabled) {
      if (probe_ != nullptr) probe_->end_run();
    }
    return stats_;
  }

  /// O(1): every node woke, and no live node is still undecided.
  [[nodiscard]] bool all_decided() const {
    return next_wake_ >= wake_order_.size() && pending_live_ == 0;
  }

  /// Flush the attached event sink, if any (`run()` does this on exit;
  /// step()-driven users call it once capture is complete).  Compiled
  /// away for NullSink.
  void flush() {
    if constexpr (S::kEnabled) {
      if (sink_ != nullptr) sink_->flush();
    }
  }

  /// Crash-stop failure injection (aligned engine only): from the next
  /// slot on, node v neither transmits nor receives.  It is excluded
  /// from `all_decided` (a dead node has no obligation to decide) and
  /// compacted out of the live lists so later slots never branch on it.
  /// Idempotent: deactivating an already-dead node changes no
  /// accounting.
  void deactivate(NodeId v) requires kAligned {
    URN_CHECK(v < nodes_.size());
    if ((status_[v] & kDeadBit) != 0) return;
    status_[v] |= kDeadBit;
    medium_.deactivate(v);  // no longer a listening candidate
    if (decision_slot_[v] == kUndecided) --pending_live_;
    if ((status_[v] & kAwakeBit) != 0) {
      std::erase(awake_[0], v);
      std::erase(undecided_[0], v);
    }
  }

  [[nodiscard]] bool is_dead(NodeId v) const requires kAligned {
    URN_CHECK(v < status_.size());
    return (status_[v] & kDeadBit) != 0;
  }

  [[nodiscard]] bool is_awake(NodeId v) const {
    URN_CHECK(v < status_.size());
    return (status_[v] & kAwakeBit) != 0;
  }

  /// Serialize the complete engine state (a checkpoint's engine-state
  /// section).  Everything a freshly constructed engine cannot
  /// reconstruct from its constructor arguments is written: the tick
  /// cursor, aggregate stats, the medium's cross-tick state, per-node
  /// status/decision arrays, live lists, wake cursor, all per-node RNG
  /// streams, and every node's protocol state.  Per-tick scratch
  /// (transmitters_ and the medium's touch state) is never read across
  /// tick boundaries, so it is deliberately skipped.  With one lane this
  /// is the aligned engine's layout of URNC version 1.
  void save_state(obs::postmortem::Writer& w) const {
    w.u64(nodes_.size());
    w.i64(tick_);
    w.i64(stats_.slots_run);
    w.u64(stats_.transmissions);
    w.u64(stats_.deliveries);
    w.u64(stats_.collisions);
    w.u64(stats_.dropped);
    w.boolean(stats_.all_decided);
    medium_.save(w);
    for (const std::uint8_t s : status_) w.u8(s);
    for (const Slot s : decision_slot_) w.i64(s);
    for (std::size_t q = 0; q < kLanes; ++q) {
      for (const std::vector<NodeId>* ids : {&awake_[q], &undecided_[q]}) {
        w.u64(ids->size());
        for (const NodeId v : *ids) w.u32(v);
      }
    }
    w.u64(next_wake_);
    w.boolean(id_ordered_);
    w.u64(pending_live_);
    for (const Rng& r : rngs_) obs::postmortem::write_rng(w, r);
    for (const P& node : nodes_) node.save_state(w);
  }

  /// Restore state written by `save_state` into a freshly constructed
  /// engine (same graph, schedule, seed and medium — the scenario section
  /// of the checkpoint carries them).  Returns false on a truncated or
  /// inconsistent buffer; the engine must not be used after a failed
  /// load.  After a successful load, `run()` continues the original run
  /// bit-identically.
  [[nodiscard]] bool load_state(obs::postmortem::Reader& r) {
    if (r.u64() != nodes_.size()) return false;
    tick_ = r.i64();
    stats_.slots_run = r.i64();
    stats_.transmissions = r.u64();
    stats_.deliveries = r.u64();
    stats_.collisions = r.u64();
    stats_.dropped = r.u64();
    stats_.all_decided = r.boolean();
    if (!medium_.load(r)) return false;
    for (std::uint8_t& s : status_) s = r.u8();
    for (Slot& s : decision_slot_) s = r.i64();
    for (std::size_t q = 0; q < kLanes; ++q) {
      for (std::vector<NodeId>* ids : {&awake_[q], &undecided_[q]}) {
        const std::uint64_t count = r.u64();
        if (!r.ok() || count > nodes_.size()) return false;
        ids->clear();
        for (std::uint64_t i = 0; i < count; ++i) {
          ids->push_back(static_cast<NodeId>(r.u32()));
          if (ids->back() >= nodes_.size()) return false;
        }
      }
      for (const NodeId v : awake_[q]) medium_.on_admit(v);  // listeners
    }
    next_wake_ = static_cast<std::size_t>(r.u64());
    if (next_wake_ > wake_order_.size()) return false;
    id_ordered_ = r.boolean();
    pending_live_ = static_cast<std::size_t>(r.u64());
    if (pending_live_ > nodes_.size()) return false;
    for (Rng& rng : rngs_) {
      if (!obs::postmortem::read_rng(r, rng)) return false;
    }
    for (P& node : nodes_) {
      if (!node.load_state(r)) return false;
    }
    return r.ok();
  }

  /// The tick cursor: the next slot (aligned) or half-slot to run.
  [[nodiscard]] Slot current_slot() const { return tick_; }
  [[nodiscard]] const RunStats& stats() const { return stats_; }
  [[nodiscard]] const P& node(NodeId v) const { return nodes_.at(v); }
  [[nodiscard]] P& node(NodeId v) { return nodes_.at(v); }
  [[nodiscard]] const WakeSchedule& schedule() const { return schedule_; }

  /// Local slot in which v's `decided()` first became true (kUndecided if
  /// never) — comparable across slot alignments.
  [[nodiscard]] Slot decision_slot(NodeId v) const {
    return decision_slot_.at(v);
  }

  /// T_v of Sect. 2: slots between wake-up and irrevocable decision.
  [[nodiscard]] Slot decision_latency(NodeId v) const {
    URN_CHECK(decision_slot_.at(v) != kUndecided);
    return decision_slot_[v] - schedule_.wake_slot(v);
  }

  static constexpr Slot kUndecided = -1;

 protected:
  /// The engine on any medium (see the public constructor).
  Engine(const graph::Graph& g, WakeSchedule schedule, std::vector<P> nodes,
         std::uint64_t seed, S* sink, Medium medium)
      : graph_(g),
        schedule_(std::move(schedule)),
        nodes_(std::move(nodes)),
        hot_(g.num_nodes()),
        medium_(std::move(medium)),
        sink_(sink),
        status_(g.num_nodes(), 0),
        decision_slot_(g.num_nodes(), kUndecided),
        pending_live_(g.num_nodes()) {
    URN_CHECK(nodes_.size() == graph_.num_nodes());
    URN_CHECK(schedule_.size() == graph_.num_nodes());
    if constexpr (kHasHotState<P>) {
      // Attach AFTER the node vector is moved into place: the pointers
      // nodes keep into the block stay valid for the engine's lifetime.
      for (P& node : nodes_) node.attach_hot(&hot_);
    }
    rngs_.reserve(graph_.num_nodes());
    for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
      URN_CHECK(medium_.lane(v) < kLanes);
      rngs_.emplace_back(mix_seed(seed, v));
    }
    // Wake order: nodes sorted by (first tick, id) for an O(1) amortized
    // wake scan — (wake slot, id) within each lane.  The id tie-break
    // makes the order — and with it the per-slot transmitter order,
    // which fixes the medium-RNG draw sequence under drop_probability >
    // 0 — a specification the reference engine can reproduce, not an
    // artifact of the sort implementation.
    wake_order_.resize(graph_.num_nodes());
    for (NodeId v = 0; v < graph_.num_nodes(); ++v) wake_order_[v] = v;
    std::sort(wake_order_.begin(), wake_order_.end(),
              [this](NodeId a, NodeId b) {
                const Slot ta = first_tick(a);
                const Slot tb = first_tick(b);
                return ta != tb ? ta < tb : a < b;
              });
  }

 private:
  // Per-node status bits (one byte per node; vector<bool> bit ops were a
  // measurable hot-path cost, and one byte encodes both flags so the
  // common "live awake listener?" test is a single compare with 0x1).
  static constexpr std::uint8_t kAwakeBit = 0x1;
  static constexpr std::uint8_t kDeadBit = 0x2;

  /// Local slot of lane `lane` at tick `tick` (the one it started last).
  static Slot local_slot(std::size_t lane, Slot tick) {
    return (tick - static_cast<Slot>(lane)) / static_cast<Slot>(kLanes);
  }

  /// The tick v's lane starts v's wake slot.
  [[nodiscard]] Slot first_tick(NodeId v) const {
    return schedule_.wake_slot(v) * static_cast<Slot>(kLanes) +
           static_cast<Slot>(medium_.lane(v));
  }

  /// Hand `msg` to listener u in its local slot `now` (medium callback).
  void deliver(NodeId u, const Message& msg, Slot now) {
    ++stats_.deliveries;
    emit([&] {
      return obs::Event::delivery(now, u, msg.sender,
                                  static_cast<std::uint8_t>(msg.type),
                                  msg.color_index);
    });
    SlotContext ctx = context(u, now);
    nodes_[u].on_receive(ctx, msg);
  }

  /// Count a reception at u lost to overlapping frames (medium callback).
  void collide(NodeId u, Slot now) {
    ++stats_.collisions;
    emit([&] { return obs::Event::collision(now, u); });
  }

  /// Emit an event built by `make` — compiled away entirely for NullSink
  /// (the lambda is never instantiated, so event construction costs
  /// nothing when tracing is off).
  template <typename MakeEvent>
  void emit(MakeEvent&& make) {
    if constexpr (S::kEnabled) {
      if (sink_ != nullptr) sink_->record(make());
    }
  }

  /// End phase `layer` of this tick on the probe's layer clock —
  /// compiled away on probe-disabled instantiations.
  void probe_lap(std::size_t layer) {
    if constexpr (T::kEnabled) {
      if (probe_ != nullptr) probe_->lap(layer);
    }
  }

  /// The slot-wide part of a context: the local slot and, on a traced
  /// engine, the event hook (what `batch_slots` receives).
  [[nodiscard]] SlotContext slot_context(Slot now) {
    SlotContext ctx;
    ctx.now = now;
    if constexpr (S::kEnabled) {
      if (sink_ != nullptr) {
        ctx.events_sink = sink_;
        ctx.events_fn = [](void* sink, const obs::Event& e) {
          static_cast<S*>(sink)->record(e);
        };
      }
    }
    return ctx;
  }

  [[nodiscard]] SlotContext context(NodeId v, Slot now) {
    SlotContext ctx = slot_context(now);
    ctx.id = v;
    ctx.rng = &rngs_[v];
    return ctx;
  }

  const graph::Graph& graph_;
  WakeSchedule schedule_;
  std::vector<P> nodes_;
  /// SoA hot block for opted-in protocols (empty NoHotState otherwise).
  /// Nodes hold raw pointers into it, so the engine is neither copyable
  /// nor movable (see the deleted special members above).
  HotStateOf<P> hot_;
  Medium medium_;
  S* sink_;
  T* probe_ = nullptr;  ///< telemetry probe (optional)
  std::vector<Rng> rngs_;

  Slot tick_ = 0;
  std::vector<std::uint8_t> status_;     ///< kAwakeBit | kDeadBit per node
  /// Per lane: live awake nodes (wake order, then id order) and their
  /// undecided subset.
  std::array<std::vector<NodeId>, kLanes> awake_;
  std::array<std::vector<NodeId>, kLanes> undecided_;
  std::vector<NodeId> wake_order_;
  std::size_t next_wake_ = 0;
  bool id_ordered_ = false;  ///< live lists re-sorted to id order yet?
  std::vector<Slot> decision_slot_;
  /// Live (non-dead) nodes without a recorded decision — the O(1)
  /// termination counter behind `all_decided()`.
  std::size_t pending_live_ = 0;
  std::vector<Message> transmitters_;  ///< this tick's transmissions

  RunStats stats_;
};

}  // namespace urn::radio
