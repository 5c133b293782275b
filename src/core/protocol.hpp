/// \file protocol.hpp
/// \brief The coloring protocol of Sect. 4 — Algorithms 1, 2 and 3 as a
///        single per-node state machine driven by the radio engine.
///
/// State diagram (Fig. 2):
///
///     Z ──wake──▶ A₀ ──c_v ≥ σΔlog n──▶ C₀ (leader)
///                 │ M_C⁰                      │ serves FIFO queue of
///                 ▼                           │ M_R requests with
///                 R ──M_C⁰(L(v),v,tc)──▶ A_{tc(κ₂+1)} ─▶ … ─▶ C_i
///                                             │ M_C^i
///                                             ▼
///                                           A_{i+1}
///
/// Faithfulness notes (mapped to paper lines):
///  * passive phase of ⌈αΔ log n⌉ slots on every A_i entry (Alg. 1 l. 4);
///  * competitor list P_v stores (value, slot) pairs; the per-slot +1 aging
///    of d_v(w) (Alg. 1 l. 5/18) is computed lazily as value + elapsed;
///  * reset to χ(P_v) only when a received counter is within the critical
///    range ⌈γζ_i log n⌉ (Alg. 1 l. 29);
///  * threshold test precedes the transmission attempt within a slot
///    (Alg. 1 l. 19 before l. 22), and a node that decides starts behaving
///    as C_i in the same slot;
///  * leaders keep a requester in the queue for the whole ⌈β log n⌉
///    broadcast window and re-admit it afterwards if it requests again
///    (Alg. 3 l. 10 checks only current queue membership) — the optional
///    `remember_served` extension suppresses re-admission (ablation A3);
///  * any message from a node in C₀ (beacon or assignment) identifies a
///    leader to an A₀ listener (Fig. 2 transition M_C⁰).
///
/// **Draw-order spec v1** (fixed in PR 5, preserved verbatim since):
/// every node draws only from its own `mix_seed(seed, id)` xoshiro
/// stream, in its awake-list visit order — (wake slot, id) ascending
/// while the network is waking, id-ascending once all nodes are awake —
/// and the medium draws drop chances from `mix_seed(seed, 0xFADED)` in
/// first-touch listener order.  The engine core (on both media), the
/// naive reference and both protocol sweeps (the scalar `on_slot` loop
/// and the SoA `batch_slots` pass) implement this same sequence, which
/// is what makes them bit-comparable; `tests/test_reference_diff.cpp`
/// is the arbiter.  Changing the spec (a v2) means re-baselining every
/// exact key under bench/.

#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/params.hpp"
#include "graph/coloring.hpp"
#include "radio/engine.hpp"
#include "radio/message.hpp"
#include "support/check.hpp"
#include "support/containers.hpp"
#include "support/rng.hpp"

namespace urn::core {

using graph::NodeId;
using radio::Slot;

/// Top-level protocol states (A_i and C_i carry the color index i).
enum class Phase : std::uint8_t {
  kVerify,   ///< A_i: verifying / competing for color i (Algorithm 1)
  kRequest,  ///< R: requesting an intra-cluster color (Algorithm 2)
  kDecided,  ///< C_i: color i fixed (Algorithm 3)
};

/// Engine-owned structure-of-arrays block holding every `ColoringNode`
/// field the per-slot sweep reads or writes.  The engine constructs one
/// block per run and attaches every node to it (`attach_hot`); a node
/// indexes the arrays with its own id.  The cold tail (competitor
/// `SmallVec`, leader `RingQueue`, stats, transition log) stays inside
/// the node object and is touched only on receptions that `reacts`
/// admits and on phase transitions, so the hot sweep streams four small
/// arrays instead of striding over 400+-byte node records.
///
/// The block answers both sides of a slot without touching a node
/// object: `batch_slots` decides who transmits what, and `reacts` which
/// receptions can change their receiver.
///
/// `klass` collapses the old (phase, active, leader?) triple into one
/// byte, ordered so the per-slot dispatch and the decided test are each
/// a single compare.  Invariants: `kLeader` ⟺ decided with color 0
/// (only an A₀ threshold decision yields color 0), `kCount` ⟺ the old
/// `active_` flag, and the checkpoint codec round-trips through the
/// original (phase, active) pair so the URNC v1 layout is unchanged.
struct ColoringHot {
  enum Klass : std::uint8_t {
    kPassive = 0,       ///< A_i, passive listening (Alg. 1 l. 4–14)
    kCount = 1,         ///< A_i, actively counting (Alg. 1 l. 15–26)
    kRequest = 2,       ///< R, requesting (Algorithm 2)
    kDecidedOther = 3,  ///< C_i with i > 0, announcing (Alg. 3 l. 4)
    kLeader = 4,        ///< C₀, serving its cluster (Algorithm 3)
  };

  explicit ColoringHot(std::size_t n)
      : klass(n, kPassive),
        color(n, 0),
        counter(n, 0),
        passive_remaining(n, 0) {}

  /// O(1) decided test without touching the node object.
  [[nodiscard]] bool decided(NodeId v) const {
    return klass[v] >= kDecidedOther;
  }
  /// First-stage goal (`radio::Goal::kCovered`): left A₀ for R or C₀.
  /// Exact for a node still in A₀ at the previous tick's scan, which is
  /// all the engine asks: A₀ exits only to R or C₀ within a tick, and R
  /// is left only on a later slot's receive.
  [[nodiscard]] bool covered(NodeId v) const { return klass[v] >= kRequest; }

  /// Can receiving `msg` change node v?  False only where
  /// `ColoringNode::on_receive` provably leaves the node's state (every
  /// byte `save_state` writes) untouched and emits no event, so the
  /// engine skips the call there.  The cases mirror on_receive:
  ///  * A_i acts on M_A^i and M_C^i of its own color i, and A₀ also on
  ///    any assignment, which always carries color 0 (Alg. 1 l. 6–10,
  ///    23, 27–30; Fig. 2's M_C⁰ edge);
  ///  * R acts only on an assignment addressed to it (Alg. 2 l. 3; the
  ///    sender check is left to on_receive);
  ///  * a leader acts only on a request addressed to it (Alg. 3 l. 10);
  ///  * C_i with i > 0 only announces (Alg. 3 l. 4) and ignores traffic.
  [[nodiscard]] bool reacts(NodeId v, const radio::Message& msg) const {
    const std::uint8_t k = klass[v];
    if (k <= kCount) {
      if (msg.type == radio::MsgType::kAssign) return color[v] == 0;
      return msg.type != radio::MsgType::kRequest &&
             msg.color_index == color[v];
    }
    if (k == kRequest) {
      return msg.type == radio::MsgType::kAssign && msg.target == v;
    }
    if (k == kLeader) {
      return msg.type == radio::MsgType::kRequest && msg.target == v;
    }
    return false;  // kDecidedOther
  }

  std::vector<std::uint8_t> klass;              ///< state byte per node
  std::vector<std::int32_t> color;              ///< i of the A_i / C_i
  std::vector<std::int64_t> counter;            ///< c_v
  std::vector<std::int64_t> passive_remaining;  ///< passive slots left

  // Params-derived scalars shared by every node of a run (all nodes are
  // built from one immutable `Params`); cached here so the batched sweep
  // compares against registers instead of re-loading per-node copies.
  std::int64_t threshold = 0;  ///< ⌈σΔ log n⌉
  double p_active = 0.0;       ///< 1/(κ₂Δ)
  double p_leader = 0.0;       ///< 1/κ₂
};

/// Per-node event counters for experiments and ablations.
struct NodeStats {
  std::uint32_t resets = 0;            ///< counter resets via Alg. 1 l. 29
  std::uint32_t verify_states = 0;     ///< number of A_i states entered
  std::uint32_t assignments_heard = 0; ///< intra-cluster colors received
  std::uint32_t duplicate_serves = 0;  ///< leader only: re-served requesters
};

/// One state-machine transition, recorded for tracing/verification.
/// The sequence of these per node must follow Fig. 2:
/// A₀ → {C₀ | R}, R → A_{tc(κ₂+1)}, A_i → {C_i | A_{i+1}} for i > 0.
/// When the engine carries an event sink, each record is also emitted as
/// an obs::EventKind::kPhase event (plus kReset / kServe for Alg. 1 l. 29
/// resets and Alg. 3 window completions).
struct Transition {
  Slot slot = 0;                ///< local slot of the transition
  Phase phase = Phase::kVerify; ///< state entered
  std::int32_t color_index = 0; ///< i of A_i / C_i (unused for R)
};

/// One protocol participant; plugged into radio::Engine<ColoringNode>.
///
/// Hot per-slot state (state byte, color index, counter, passive
/// countdown) lives in an engine-owned `ColoringHot` SoA block — see
/// `Hot` / `attach_hot`.
/// A node must be attached to a block before any callback runs; the
/// engines attach every node in their constructors, and unit tests
/// drive a node standalone by attaching a one-entry block.
class ColoringNode {
 public:
  /// Engine-discovered SoA hot-state type (radio::HotStateOf).
  using Hot = ColoringHot;

  ColoringNode() = default;

  /// \param params shared parameter set (must outlive the node)
  /// \param id this node's identifier
  ///
  /// Params-derived quantities used every slot (threshold, sending
  /// probabilities, passive length, critical ranges) are computed once
  /// here: `Params` is immutable for the lifetime of a run, and e.g.
  /// `threshold()` hides a `std::log` that would otherwise run per
  /// node-slot on the hot path.
  ColoringNode(const Params* params, NodeId id)
      : id_(id),
        threshold_(params->threshold()),
        p_active_(params->p_active()),
        p_leader_(params->p_leader()),
        params_(params),
        passive_slots_(params->passive_slots()),
        assign_window_(params->assign_window()),
        critical_range0_(params->critical_range(0)),
        critical_rangeN_(params->critical_range(1)) {}

  /// Point this node at the run's SoA hot block and reset its hot entry
  /// to the pre-wake state.  Also publishes the shared Params-derived
  /// scalars (threshold, p_active, p_leader) into the block — identical
  /// for every node of a run, asserted in debug builds.
  void attach_hot(ColoringHot* hot) {
    hot_ = hot;
    URN_DCHECK(id_ < hot->klass.size());
    URN_DCHECK(hot->threshold == 0 || hot->threshold == threshold_);
    hot->threshold = threshold_;
    hot->p_active = p_active_;
    hot->p_leader = p_leader_;
    hot->klass[id_] = ColoringHot::kPassive;
    hot->color[id_] = 0;
    hot->counter[id_] = 0;
    hot->passive_remaining[id_] = 0;
  }

  // --- radio::NodeProtocol interface -------------------------------------

  void on_wake(radio::SlotContext& ctx);
  std::optional<radio::Message> on_slot(radio::SlotContext& ctx);
  void on_receive(radio::SlotContext& ctx, const radio::Message& msg);
  [[nodiscard]] bool decided() const {
    return hot_->klass[id_] >= ColoringHot::kDecidedOther;
  }

  /// One whole-slot protocol pass over the engine's awake list — the
  /// structure-of-arrays replacement for calling `on_slot` per node.
  /// Bit-identical to the scalar loop by construction (draw-order spec
  /// v1 of PR 5 is preserved exactly):
  ///
  ///  * nodes are visited in ascending awake-list position — the scalar
  ///    loop's exact order — so messages land in the same transmitter
  ///    order (which pins the medium-RNG drop-draw sequence under
  ///    drop_probability > 0);
  ///  * each node's own RNG consumption is unchanged: the fast classes
  ///    (C_i announcing, A_i counting, R requesting, an idle leader's
  ///    beacon) draw the one raw xoshiro word their scalar `chance(p)`
  ///    would, rephrased as an exact integer compare (see the proof at
  ///    the cutoff computation), and the cold classes (activation with
  ///    its χ reset and possible threshold decision, a leader serving or
  ///    starting to serve a request) run the full scalar `on_slot`.
  ///
  /// The win over the scalar loop is mechanical, not semantic: one
  /// branch on the hot `klass` byte instead of the nested phase
  /// dispatch, no per-node SlotContext / std::optional<Message>
  /// construction on the non-transmitting fast path, and a Bernoulli
  /// compare against a precomputed integer cutoff instead of an
  /// int→double conversion + double compare per draw.
  ///
  /// Contract on `awake[0, count)`: distinct live node ids, and when
  /// count == n, ascending (either medium re-sorts its lanes once every
  /// node is awake), which the identity shortcut relies on.  `slot`
  /// carries the lane's local slot and the engine's event hook (null on
  /// untraced engines).  The event stream is the scalar loop's too: each
  /// transmit event is emitted right after its message is appended, and
  /// the cold classes run `on_slot` with the hook, so their phase and
  /// serve events precede the node's transmit event exactly as there.
  static void batch_slots(ColoringHot& hot, const NodeId* awake,
                          std::size_t count, const radio::SlotContext& slot,
                          ColoringNode* nodes, Rng* rngs,
                          std::vector<radio::Message>& out);

 private:
  /// The irregular minority of `batch_slots` node-slots (activation with
  /// its χ reset and possible threshold decision, a leader with a request
  /// queued or in service): runs the full scalar `on_slot` with the
  /// slot's event hook, so RNG consumption, message position and events
  /// match the scalar loop trivially.  Deliberately defined out of line
  /// (protocol.cpp) — with `on_slot` expanded in place the fused loop
  /// grows past what the compiler will keep in registers (measured ~25%
  /// throughput loss).
  static void batch_cold_slot(NodeId v, const radio::SlotContext& slot,
                              ColoringNode* nodes, Rng* rngs,
                              std::vector<radio::Message>& out);

 public:

  // --- inspection ---------------------------------------------------------

  [[nodiscard]] Phase phase() const {
    const std::uint8_t k = hot_->klass[id_];
    if (k <= ColoringHot::kCount) return Phase::kVerify;
    return k == ColoringHot::kRequest ? Phase::kRequest : Phase::kDecided;
  }
  /// Final color (graph::kUncolored until decided).
  [[nodiscard]] graph::Color color() const {
    return decided() ? hot_->color[id_] : graph::kUncolored;
  }
  /// Color index currently verified (only meaningful in kVerify).
  [[nodiscard]] std::int32_t verifying_color() const {
    return hot_->color[id_];
  }
  [[nodiscard]] bool is_leader() const {
    return hot_->klass[id_] == ColoringHot::kLeader;
  }
  /// Leader this node associated with (kInvalidNode for leaders / pre-R).
  [[nodiscard]] NodeId leader() const { return leader_; }
  /// Intra-cluster color received from the leader (−1 before assignment).
  [[nodiscard]] std::int32_t intra_cluster_color() const { return tc_; }
  [[nodiscard]] const NodeStats& stats() const { return stats_; }
  [[nodiscard]] std::int64_t counter() const { return hot_->counter[id_]; }
  /// Current competitor-list size |P_v|.
  [[nodiscard]] std::size_t competitors() const { return comp_who_.size(); }
  /// The node's state-transition history (capped at kMaxTransitions).
  [[nodiscard]] const std::vector<Transition>& transitions() const {
    return transitions_;
  }

  /// Transition-log capacity; a well-behaved run needs ≤ κ₂ + 3 entries.
  static constexpr std::size_t kMaxTransitions = 256;

  // --- postmortem checkpointing -------------------------------------------

  /// Serialize every mutable protocol field (the Params-derived caches
  /// are reconstructed by the constructor from the scenario and are
  /// skipped).  Layout is part of the URNC checkpoint format.
  void save_state(obs::postmortem::Writer& w) const;

  /// Restore fields written by `save_state` into a node constructed with
  /// the same (params, id).  Returns false on a truncated/corrupt buffer.
  [[nodiscard]] bool load_state(obs::postmortem::Reader& r);

 private:
  void enter_verify(std::int32_t color_index, const radio::SlotContext& ctx);
  void enter_decided(std::int32_t color_index, const radio::SlotContext& ctx);
  void record_transition(Slot slot, const radio::SlotContext& ctx);
  void store_competitor(NodeId who, std::int64_t value, Slot now);
  void clear_competitors();
  [[nodiscard]] std::int64_t chi_of_competitors(Slot now) const;
  std::optional<radio::Message> leader_slot(radio::SlotContext& ctx);
  std::optional<radio::Message> count_slot(radio::SlotContext& ctx);

  /// ⌈γζ_i log n⌉ for the current color index, from the cached pair.
  [[nodiscard]] std::int64_t critical_range_now() const {
    return hot_->color[id_] == 0 ? critical_range0_ : critical_rangeN_;
  }

  // Hot per-slot state lives in the engine-owned SoA block; the fields
  // kept here are read on transitions, receive events, or only for the
  // transmitting minority of slots.
  ColoringHot* hot_ = nullptr;    ///< run-wide SoA block (attach_hot)
  NodeId id_ = graph::kInvalidNode;
  std::int32_t tc_ = -1;          ///< intra-cluster color
  std::int64_t threshold_ = 0;    ///< cached ⌈σΔ log n⌉
  double p_active_ = 0.0;         ///< cached 1/(κ₂Δ)
  double p_leader_ = 0.0;         ///< cached 1/κ₂

  // Cached Params-derived constants for colder paths.
  const Params* params_ = nullptr;
  std::int64_t passive_slots_ = 0;
  std::int64_t assign_window_ = 0;
  std::int64_t critical_range0_ = 0;  ///< ζ = 1 (color index 0)
  std::int64_t critical_rangeN_ = 0;  ///< ζ = Δ (color index > 0)

  // P_v with the stored counter copies d_v(w), aged lazily as
  // value + (now − stamp) (Alg. 1 l. 5/18).  Parallel arrays rather than
  // an array of records: every matching competitor report delivered to a
  // verifying node scans the membership for the sender — the single
  // hottest receive-path loop, ~10⁸ executions in a large run — and the
  // id-only scan walks contiguous 4-byte keys instead of striding
  // 24-byte structs (6× fewer cache lines per scan).
  SmallVec<NodeId, 8> comp_who_;          ///< P_v membership (scan key)
  SmallVec<std::int64_t, 8> comp_value_;  ///< d_v(w) as of comp_stamp_
  SmallVec<Slot, 8> comp_stamp_;          ///< slot the value was stored

  NodeId leader_ = graph::kInvalidNode;  ///< L(v)

  // Leader (C₀) service state (Algorithm 3).
  RingQueue<NodeId> queue_;              ///< FIFO request queue Q
  std::vector<NodeId> served_;           ///< requesters already served
  std::int32_t next_tc_ = 0;             ///< running intra-cluster color
  std::int64_t serve_remaining_ = 0;     ///< slots left in current window
  std::int32_t serve_tc_ = 0;

  NodeStats stats_;
  std::vector<Transition> transitions_;
};

// ---- hot-path definitions -------------------------------------------------
// `on_slot` (and the leader service slot it dispatches to) runs once per
// node per slot inside the engine's fully-inlined loop; defining it here
// lets the engine template inline it instead of paying an out-of-line
// call (and a by-value std::optional<Message> return) per node-slot.

inline std::optional<radio::Message> ColoringNode::on_slot(
    radio::SlotContext& ctx) {
  switch (hot_->klass[id_]) {
    case ColoringHot::kPassive: {
      // Passive listening phase (Alg. 1 l. 4–14): d_v(w) copies age
      // implicitly; no transmissions.
      std::int64_t& passive = hot_->passive_remaining[id_];
      if (passive > 0) {
        --passive;
        return std::nullopt;
      }
      // c_v := χ(P_v) (Alg. 1 l. 15), then become active.  The naive /
      // no-reset ablations skip χ and start from 0.
      hot_->counter[id_] =
          (params_->reset_policy == ResetPolicy::kCriticalRange)
              ? chi_of_competitors(ctx.now)
              : 0;
      hot_->klass[id_] = ColoringHot::kCount;
      return count_slot(ctx);
    }

    case ColoringHot::kCount:
      return count_slot(ctx);

    case ColoringHot::kRequest: {
      // Alg. 2 l. 2: transmit M_R(v, L(v)) with probability 1/(κ₂Δ).
      if (ctx.random().chance(p_active_)) {
        return radio::make_request(id_, leader_);
      }
      return std::nullopt;
    }

    case ColoringHot::kLeader:
      return leader_slot(ctx);

    default: {  // kDecidedOther
      // Alg. 3 l. 4: non-leader C_i keeps announcing its color.
      if (ctx.random().chance(p_active_)) {
        return radio::make_decided(id_, hot_->color[id_]);
      }
      return std::nullopt;
    }
  }
}

inline std::optional<radio::Message> ColoringNode::count_slot(
    radio::SlotContext& ctx) {
  std::int64_t& counter = hot_->counter[id_];
  ++counter;  // Alg. 1 l. 17
  if (counter >= threshold_) {
    // Alg. 1 l. 19–20: decide color i and start Algorithm 3 at once.
    enter_decided(hot_->color[id_], ctx);
    return on_slot(ctx);
  }
  if (ctx.random().chance(p_active_)) {
    return radio::make_compete(id_, hot_->color[id_], counter);
  }
  return std::nullopt;
}

inline std::optional<radio::Message> ColoringNode::leader_slot(
    radio::SlotContext& ctx) {
  // Start serving the next request if idle (Alg. 3 l. 15–17).
  if (serve_remaining_ == 0 && !queue_.empty()) {
    serve_tc_ = ++next_tc_;
    serve_remaining_ = assign_window_;
  }
  if (serve_remaining_ > 0) {
    const NodeId target = queue_.front();
    --serve_remaining_;
    const bool transmit = ctx.random().chance(p_leader_);
    if (serve_remaining_ == 0) {
      // Window exhausted: remove w from Q (Alg. 3 l. 21).
      served_.push_back(target);
      queue_.pop_front();
      if (ctx.tracing()) {
        ctx.emit(obs::Event::serve(ctx.now, id_, target, serve_tc_));
      }
    }
    if (transmit) return radio::make_assign(id_, target, serve_tc_);
    return std::nullopt;
  }
  // Idle beacon (Alg. 3 l. 13–14).
  if (ctx.random().chance(p_leader_)) {
    return radio::make_decided(id_, 0);
  }
  return std::nullopt;
}

inline void ColoringNode::batch_slots(ColoringHot& hot, const NodeId* awake,
                                      std::size_t count,
                                      const radio::SlotContext& slot,
                                      ColoringNode* nodes, Rng* rngs,
                                      std::vector<radio::Message>& out) {
  const double p = hot.p_active;
  if (!(p > 0.0 && p < 1.0)) {
    // Degenerate transmit probability: `chance(p)` consumes no
    // randomness, so there is nothing to batch — run the scalar slots.
    for (std::size_t i = 0; i < count; ++i) {
      batch_cold_slot(awake[i], slot, nodes, rngs, out);
    }
    return;
  }

  // Exact integer form of the Bernoulli draw.  `uniform() < p` computes
  // (double)u · 2⁻⁵³ < p with u = (x >> 11) ∈ [0, 2⁵³); every step is
  // exact (u has ≤ 53 significant bits, and scaling by a power of two
  // neither rounds nor over/underflows here), so the comparison holds
  // iff u < p·2⁵³ over the reals, iff u < ⌈p·2⁵³⌉ for integral u.  With
  // 0 < p < 1, p·2⁵³ and its ceiling are themselves computed exactly in
  // double, so the cutoff is the true ⌈p·2⁵³⌉ and the integer compare
  // reproduces the double compare bit-for-bit — while keeping the draw
  // free of the int→double conversion on the critical path.
  const auto cutoff = [](double q) {
    return static_cast<std::uint64_t>(std::ceil(q * 0x1.0p53));
  };
  const std::uint64_t tx_cut = cutoff(p);
  // The same argument for an idle leader's beacon at p_leader = 1/κ₂;
  // at p_leader = 1 (κ₂ = 1) `chance` draws nothing, so every leader
  // slot stays on the scalar path.
  const bool beacon_fast = hot.p_leader > 0.0 && hot.p_leader < 1.0;
  const std::uint64_t beacon_cut = beacon_fast ? cutoff(hot.p_leader) : 0;

  std::uint8_t* klass = hot.klass.data();
  const std::int32_t* color = hot.color.data();
  std::int64_t* counter = hot.counter.data();
  std::int64_t* passive = hot.passive_remaining.data();
  const std::int64_t threshold = hot.threshold;

  // Fast-path transmissions: append, then (traced engines only) emit the
  // transmit event — the scalar loop's order, as nothing else happens in
  // a fast-path node-slot.
  const bool tracing = slot.tracing();
  const auto send = [&](const radio::Message& m) {
    out.push_back(m);
    if (tracing) slot.emit(radio::transmit_event(slot.now, m));
  };

  // By the contract above a full awake list (every node in one lane, all
  // awake) IS the identity permutation: walk ids directly and spare the
  // hot loop one dependent load per node-slot.  This is the steady state
  // of every long aligned run (all awake, none deactivated).
  const bool identity = count == hot.klass.size();

  // One fused pass in scalar node order.  The branch chain is ordered
  // by late-run frequency: once a node decides it spends every further
  // slot in kDecidedOther, so long runs are dominated by the first
  // test, a one-byte load + compare + one RNG draw per node-slot.  The
  // irregular work (activation, threshold decisions, leader service)
  // lives out of line in `batch_cold_slot` so the loop body stays small
  // enough for the compiler to keep its state in registers.
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId v = identity ? static_cast<NodeId>(i) : awake[i];
    const std::uint8_t k = klass[v];
    if (k == ColoringHot::kDecidedOther) {
      // Alg. 3 l. 4: non-leader C_i keeps announcing its color.
      if ((rngs[v]() >> 11) < tx_cut) {
        send(radio::make_decided(v, color[v]));
      }
    } else if (k == ColoringHot::kCount) {
      const std::int64_t c = counter[v] + 1;  // Alg. 1 l. 17
      if (c >= threshold) {
        batch_cold_slot(v, slot, nodes, rngs, out);  // decides (re-increments)
      } else {
        counter[v] = c;
        if ((rngs[v]() >> 11) < tx_cut) {
          send(radio::make_compete(v, color[v], c));
        }
      }
    } else if (k == ColoringHot::kPassive) {
      std::int64_t& left = passive[v];
      if (left > 0) {
        --left;  // Alg. 1 l. 4–14: listen silently
      } else {
        batch_cold_slot(v, slot, nodes, rngs, out);  // activates (χ, …)
      }
    } else if (k == ColoringHot::kRequest) {
      // Alg. 2 l. 2: transmit M_R(v, L(v)) with probability 1/(κ₂Δ).
      if ((rngs[v]() >> 11) < tx_cut) {
        send(radio::make_request(v, nodes[v].leader_));
      }
    } else if (beacon_fast && nodes[v].serve_remaining_ == 0 &&
               nodes[v].queue_.empty()) {
      // Alg. 3 l. 13–14: an idle leader (no request in service or queued,
      // `leader_slot`'s last branch) beacons M_C⁰ with probability 1/κ₂.
      if ((rngs[v]() >> 11) < beacon_cut) {
        send(radio::make_decided(v, 0));
      }
    } else {  // kLeader with a request queued or in service
      batch_cold_slot(v, slot, nodes, rngs, out);  // Algorithm 3 service
    }
  }
}

static_assert(radio::NodeProtocol<ColoringNode>);

}  // namespace urn::core
