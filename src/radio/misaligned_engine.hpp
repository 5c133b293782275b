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
/// Hot-path structure mirrors radio::Engine's: per-parity wake-sorted
/// participation lists replace the O(n) per-half node scan, neighbor
/// counts are epoch-stamped with the half index instead of cleared
/// wholesale, termination is an O(1) counter pair, and `run()`
/// fast-forwards across halves in which no node participates.

#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "radio/engine.hpp"
#include "radio/message.hpp"
#include "radio/wakeup.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace urn::radio {

template <NodeProtocol P, obs::EventSink S = obs::NullSink,
          typename T = obs::telemetry::NullEngineProbe,
          typename C = obs::postmortem::NullCheckpointer>
class MisalignedEngine {
 public:
  /// \param offsets per-node phase offset in half-slots (each 0 or 1)
  /// \param sink    optional event sink (slots in events are *local* slots)
  MisalignedEngine(const graph::Graph& g, WakeSchedule schedule,
                   std::vector<P> nodes, std::vector<std::uint8_t> offsets,
                   std::uint64_t seed, S* sink = nullptr)
      : graph_(g),
        schedule_(std::move(schedule)),
        nodes_(std::move(nodes)),
        hot_(g.num_nodes()),
        offsets_(std::move(offsets)),
        sink_(sink),
        awake_(g.num_nodes(), 0),
        decision_slot_(g.num_nodes(), kUndecided),
        undecided_(g.num_nodes()),
        tx_until_half_(g.num_nodes(), -1),
        nbr_count_{std::vector<std::uint32_t>(g.num_nodes(), 0),
                   std::vector<std::uint32_t>(g.num_nodes(), 0)},
        nbr_stamp_{std::vector<std::int64_t>(g.num_nodes(), -1),
                   std::vector<std::int64_t>(g.num_nodes(), -1)} {
    URN_CHECK(nodes_.size() == graph_.num_nodes());
    URN_CHECK(schedule_.size() == graph_.num_nodes());
    URN_CHECK(offsets_.size() == graph_.num_nodes());
    for (std::uint8_t o : offsets_) URN_CHECK(o <= 1);
    if constexpr (kHasHotState<P>) {
      // SoA protocols keep hot state in the engine-owned block (see
      // engine.hpp); the half-slot medium keeps the scalar `on_slot`
      // loop — interleaved parities give no contiguous batch to sweep.
      for (P& node : nodes_) node.attach_hot(&hot_);
    }
    rngs_.reserve(graph_.num_nodes());
    for (graph::NodeId v = 0; v < graph_.num_nodes(); ++v) {
      rngs_.emplace_back(mix_seed(seed, v));
    }
    // Per-parity wake order, sorted by (wake slot, id): each half scans
    // only the nodes that participate in it, admitting new wakers in
    // O(1) amortized — the old engine re-scanned all n nodes per half.
    for (graph::NodeId v = 0; v < graph_.num_nodes(); ++v) {
      wake_order_[offsets_[v]].push_back(v);
    }
    for (auto& order : wake_order_) {
      std::sort(order.begin(), order.end(),
                [this](graph::NodeId a, graph::NodeId b) {
                  const Slot wa = schedule_.wake_slot(a);
                  const Slot wb = schedule_.wake_slot(b);
                  return wa != wb ? wa < wb : a < b;
                });
    }
  }

  // Nodes point into the engine-owned hot block (see Engine).
  MisalignedEngine(const MisalignedEngine&) = delete;
  MisalignedEngine& operator=(const MisalignedEngine&) = delete;

  /// Uniformly random offsets, the natural "unsynchronized clocks" model.
  [[nodiscard]] static std::vector<std::uint8_t> random_offsets(
      std::size_t n, Rng& rng) {
    std::vector<std::uint8_t> offsets(n);
    for (auto& o : offsets) o = static_cast<std::uint8_t>(rng.below(2));
    return offsets;
  }

  /// Attach a telemetry probe (see Engine::set_telemetry; one aggregate
  /// sample per half-slot, local-slot counts in `slots`).  Compiled away
  /// for the default `NullEngineProbe`.
  void set_telemetry(T* probe) { probe_ = probe; }

  /// Attach a postmortem checkpointer (see Engine::set_checkpointer).
  /// Positions handed to the checkpointer are **global half-slots**, the
  /// engine's native cursor — a `--checkpoint-every` in local slots maps
  /// to `2 * every` halves.  Compiled away for `NullCheckpointer`.
  void set_checkpointer(C* ckpt) { ckpt_ = ckpt; }

  /// Advance one global half-slot.
  void step_half() {
    const std::int64_t h = half_;
    const std::size_t parity = static_cast<std::size_t>(h & 1);

    [[maybe_unused]] std::size_t probe_woken_before = 0;
    [[maybe_unused]] std::size_t probe_undecided_before = 0;
    [[maybe_unused]] std::uint64_t probe_tx_before = 0;
    [[maybe_unused]] std::uint64_t probe_deliveries_before = 0;
    [[maybe_unused]] std::uint64_t probe_collisions_before = 0;
    [[maybe_unused]] Slot probe_slots_before = 0;
    if constexpr (T::kEnabled) {
      if (probe_ != nullptr) {
        probe_woken_before = woken_;
        probe_undecided_before = undecided_;
        probe_tx_before = stats_.transmissions;
        probe_deliveries_before = stats_.deliveries;
        probe_collisions_before = stats_.collisions;
        probe_slots_before = stats_.slots_run;
      }
    }

    // (1) Nodes whose local slot starts at this half run their protocol.
    // All parity-p nodes share the same local slot at half h: (h - p)/2.
    if (h >= static_cast<std::int64_t>(parity)) {
      const Slot local = (h - static_cast<std::int64_t>(parity)) / 2;
      auto& order = wake_order_[parity];
      std::size_t& admit = next_wake_[parity];
      while (admit < order.size() &&
             schedule_.wake_slot(order[admit]) <= local) {
        const graph::NodeId v = order[admit++];
        awake_[v] = 1;
        ++woken_;
        emit([&] { return obs::Event::wake(local, v); });
        SlotContext wake_ctx = context(v, local);
        nodes_[v].on_wake(wake_ctx);
        awake_list_[parity].push_back(v);
      }
      for (graph::NodeId v : awake_list_[parity]) {
        SlotContext ctx = context(v, local);
        if (std::optional<Message> msg = nodes_[v].on_slot(ctx)) {
          URN_DCHECK(msg->sender == v);
          ++stats_.transmissions;
          emit([&] { return transmit_event(local, *msg); });
          tx_until_half_[v] = h + 1;  // occupies halves h and h+1
          active_.push_back({*msg, h});
        }
        if (decision_slot_[v] == kUndecided && nodes_[v].decided()) {
          decision_slot_[v] = local;
          --undecided_;
          emit([&] {
            return obs::Event::decision(local, v, /*color=*/-1,
                                        local - schedule_.wake_slot(v));
          });
        }
      }
    }

    // (2) Account every ongoing transmission in this half's counts
    // (epoch-stamped with the half index; never cleared wholesale).
    for (const auto& tx : active_) {
      for (graph::NodeId u : graph_.neighbors(tx.msg.sender)) {
        if (nbr_stamp_[parity][u] != h) {
          nbr_stamp_[parity][u] = h;
          nbr_count_[parity][u] = 1;
        } else {
          ++nbr_count_[parity][u];
        }
      }
    }

    // (3) Transmissions that started at h−1 complete now: deliver.
    const std::size_t prev = static_cast<std::size_t>((h - 1) & 1);
    for (std::size_t i = 0; i < active_.size();) {
      const ActiveTx& tx = active_[i];
      if (tx.start_half != h - 1) {
        ++i;
        continue;
      }
      for (graph::NodeId u : graph_.neighbors(tx.msg.sender)) {
        if (awake_[u] == 0) continue;
        // u listening during both halves?
        if (tx_until_half_[u] >= h - 1) continue;
        const std::uint32_t c_prev = count_at(prev, u, h - 1);
        const std::uint32_t c_now = count_at(parity, u, h);
        if (c_prev == 1 && c_now == 1) {
          ++stats_.deliveries;
          const Slot local = (h - offsets_[u]) / 2;
          emit([&] {
            return obs::Event::delivery(
                local, u, tx.msg.sender,
                static_cast<std::uint8_t>(tx.msg.type), tx.msg.color_index);
          });
          SlotContext ctx = context(u, local);
          nodes_[u].on_receive(ctx, tx.msg);
          if (decision_slot_[u] == kUndecided && nodes_[u].decided()) {
            decision_slot_[u] = local;
            --undecided_;
            emit([&] {
              return obs::Event::decision(local, u, /*color=*/-1,
                                          local - schedule_.wake_slot(u));
            });
          }
        } else if (c_prev >= 2 || c_now >= 2) {
          ++stats_.collisions;
          emit([&] {
            return obs::Event::collision((h - offsets_[u]) / 2, u);
          });
        }
      }
      active_[i] = active_.back();
      active_.pop_back();
    }

    ++half_;
    stats_.slots_run = half_ / 2;

    if constexpr (T::kEnabled) {
      if (probe_ != nullptr) {
        obs::telemetry::SlotSample s;
        s.slots = static_cast<std::uint64_t>(stats_.slots_run -
                                             probe_slots_before);
        if (h >= static_cast<std::int64_t>(parity)) {
          s.active = awake_list_[parity].size();
        }
        s.wakes = woken_ - probe_woken_before;
        s.decisions = probe_undecided_before - undecided_;
        s.transmissions = stats_.transmissions - probe_tx_before;
        s.deliveries = stats_.deliveries - probe_deliveries_before;
        s.collisions = stats_.collisions - probe_collisions_before;
        // Awake-but-undecided population: undecided_ counts every node
        // without a decision, including the still-sleeping ones.
        s.undecided = woken_ - (nodes_.size() - undecided_);
        probe_->on_slot(s);
      }
    }
  }

  /// Run until every node is awake and decided, or the local-slot cap.
  ///
  /// Halves in which no node participates (before the first wake of a
  /// sparse schedule) are fast-forwarded: no protocol runs, no counts
  /// change, so `half_` jumps straight to the earliest upcoming start
  /// half.  Requires a pending wake, exactly like Engine::run.
  RunStats run(Slot max_local_slots) {
    URN_CHECK(max_local_slots > 0);
    if constexpr (T::kEnabled) {
      if (probe_ != nullptr) probe_->begin_run();
    }
    const std::int64_t half_cap = 2 * max_local_slots + 2;
    while (half_ < half_cap) {
      if constexpr (C::kEnabled) {
        if (ckpt_ != nullptr) ckpt_->maybe_checkpoint(*this, half_);
      }
      if (awake_list_[0].empty() && awake_list_[1].empty() &&
          (next_wake_[0] < wake_order_[0].size() ||
           next_wake_[1] < wake_order_[1].size())) {
        std::int64_t next = half_cap;
        for (std::size_t p = 0; p < 2; ++p) {
          if (next_wake_[p] < wake_order_[p].size()) {
            const Slot wake =
                schedule_.wake_slot(wake_order_[p][next_wake_[p]]);
            next = std::min(next, 2 * wake + static_cast<std::int64_t>(p));
          }
        }
        if (next > half_) {
          [[maybe_unused]] const Slot slots_before = stats_.slots_run;
          half_ = std::min(next, half_cap);
          stats_.slots_run = half_ / 2;
          if constexpr (T::kEnabled) {
            // Fast-forwarded local slots still count toward engine.slots.
            if (probe_ != nullptr && stats_.slots_run > slots_before) {
              obs::telemetry::SlotSample s;
              s.slots =
                  static_cast<std::uint64_t>(stats_.slots_run - slots_before);
              s.undecided = woken_ - (nodes_.size() - undecided_);
              probe_->on_slot(s);
            }
          }
          if (half_ >= half_cap) break;
        }
      }
      step_half();
      if (all_decided()) break;
    }
    stats_.all_decided = all_decided();
    flush();
    if constexpr (T::kEnabled) {
      if (probe_ != nullptr) probe_->end_run();
    }
    return stats_;
  }

  /// O(1): every node woke, and none is still undecided.
  [[nodiscard]] bool all_decided() const {
    return woken_ == nodes_.size() && undecided_ == 0;
  }

  /// Flush the attached event sink, if any (`run()` does this on exit;
  /// step_half()-driven users call it once capture is complete).
  void flush() {
    if constexpr (S::kEnabled) {
      if (sink_ != nullptr) sink_->flush();
    }
  }

  [[nodiscard]] const P& node(graph::NodeId v) const { return nodes_.at(v); }
  [[nodiscard]] const RunStats& stats() const { return stats_; }
  [[nodiscard]] bool is_awake(graph::NodeId v) const {
    return awake_.at(v) != 0;
  }

  /// Serialize the complete engine state (see Engine::save_state).  The
  /// misaligned engine carries cross-half state — in-flight transmissions
  /// (`active_`), per-parity neighbor counts and their half stamps, and
  /// the per-node transmit-until markers — all of which a mid-flight
  /// delivery at half h reads from half h−1, so a checkpoint at any half
  /// boundary must include them.
  void save_state(obs::postmortem::Writer& w) const {
    w.u64(nodes_.size());
    w.i64(half_);
    w.i64(stats_.slots_run);
    w.u64(stats_.transmissions);
    w.u64(stats_.deliveries);
    w.u64(stats_.collisions);
    w.u64(stats_.dropped);
    w.boolean(stats_.all_decided);
    for (const std::uint8_t a : awake_) w.u8(a);
    for (const Slot s : decision_slot_) w.i64(s);
    w.u64(woken_);
    w.u64(undecided_);
    for (const std::int64_t t : tx_until_half_) w.i64(t);
    for (std::size_t p = 0; p < 2; ++p) {
      for (const std::uint32_t c : nbr_count_[p]) w.u32(c);
      for (const std::int64_t s : nbr_stamp_[p]) w.i64(s);
      w.u64(awake_list_[p].size());
      for (const graph::NodeId v : awake_list_[p]) w.u32(v);
      w.u64(next_wake_[p]);
    }
    w.u64(active_.size());
    for (const ActiveTx& tx : active_) {
      w.u8(static_cast<std::uint8_t>(tx.msg.type));
      w.u32(tx.msg.sender);
      w.i32(tx.msg.color_index);
      w.i64(tx.msg.counter);
      w.u32(tx.msg.target);
      w.i32(tx.msg.tc);
      w.i64(tx.start_half);
    }
    for (const Rng& r : rngs_) obs::postmortem::write_rng(w, r);
    for (const P& node : nodes_) node.save_state(w);
  }

  /// Restore state written by `save_state` into a freshly constructed
  /// engine (same graph/schedule/offsets/seed).  Returns false on a
  /// truncated or inconsistent buffer.
  [[nodiscard]] bool load_state(obs::postmortem::Reader& r) {
    if (r.u64() != nodes_.size()) return false;
    half_ = r.i64();
    stats_.slots_run = r.i64();
    stats_.transmissions = r.u64();
    stats_.deliveries = r.u64();
    stats_.collisions = r.u64();
    stats_.dropped = r.u64();
    stats_.all_decided = r.boolean();
    for (std::uint8_t& a : awake_) a = r.u8();
    for (Slot& s : decision_slot_) s = r.i64();
    woken_ = static_cast<std::size_t>(r.u64());
    undecided_ = static_cast<std::size_t>(r.u64());
    if (woken_ > nodes_.size() || undecided_ > nodes_.size()) return false;
    for (std::int64_t& t : tx_until_half_) t = r.i64();
    for (std::size_t p = 0; p < 2; ++p) {
      for (std::uint32_t& c : nbr_count_[p]) c = r.u32();
      for (std::int64_t& s : nbr_stamp_[p]) s = r.i64();
      const std::uint64_t n_list = r.u64();
      if (!r.ok() || n_list > nodes_.size()) return false;
      awake_list_[p].clear();
      for (std::uint64_t i = 0; i < n_list; ++i) {
        awake_list_[p].push_back(static_cast<graph::NodeId>(r.u32()));
      }
      next_wake_[p] = static_cast<std::size_t>(r.u64());
      if (next_wake_[p] > wake_order_[p].size()) return false;
    }
    const std::uint64_t n_active = r.u64();
    if (!r.ok() || n_active > nodes_.size()) return false;
    active_.clear();
    for (std::uint64_t i = 0; i < n_active; ++i) {
      ActiveTx tx;
      tx.msg.type = static_cast<MsgType>(r.u8());
      tx.msg.sender = static_cast<graph::NodeId>(r.u32());
      tx.msg.color_index = r.i32();
      tx.msg.counter = r.i64();
      tx.msg.target = static_cast<graph::NodeId>(r.u32());
      tx.msg.tc = r.i32();
      tx.start_half = r.i64();
      active_.push_back(tx);
    }
    for (Rng& rng : rngs_) {
      if (!obs::postmortem::read_rng(r, rng)) return false;
    }
    for (P& node : nodes_) {
      if (!node.load_state(r)) return false;
    }
    return r.ok();
  }

  /// Decision time in the node's own local slots (comparable to Engine).
  [[nodiscard]] Slot decision_slot(graph::NodeId v) const {
    return decision_slot_.at(v);
  }
  [[nodiscard]] Slot decision_latency(graph::NodeId v) const {
    URN_CHECK(decision_slot_.at(v) != kUndecided);
    return decision_slot_[v] - schedule_.wake_slot(v);
  }

  static constexpr Slot kUndecided = -1;

 private:
  struct ActiveTx {
    Message msg;
    std::int64_t start_half;
  };

  /// Neighbor count for parity `par` at the half it was stamped for
  /// (0 when the entry is stale — nothing transmitted near u then).
  [[nodiscard]] std::uint32_t count_at(std::size_t par, graph::NodeId u,
                                       std::int64_t expected_half) const {
    return nbr_stamp_[par][u] == expected_half ? nbr_count_[par][u] : 0;
  }

  /// Compiled away entirely for NullSink (see Engine::emit).
  template <typename MakeEvent>
  void emit(MakeEvent&& make) {
    if constexpr (S::kEnabled) {
      if (sink_ != nullptr) sink_->record(make());
    }
  }

  [[nodiscard]] SlotContext context(graph::NodeId v, Slot local) {
    SlotContext ctx;
    ctx.id = v;
    ctx.now = local;
    ctx.rng = &rngs_[v];
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

  const graph::Graph& graph_;
  WakeSchedule schedule_;
  std::vector<P> nodes_;
  HotStateOf<P> hot_;  ///< SoA hot block (NoHotState when P has none)
  std::vector<std::uint8_t> offsets_;
  S* sink_ = nullptr;
  T* probe_ = nullptr;  ///< telemetry probe (optional)
  C* ckpt_ = nullptr;   ///< postmortem checkpointer (optional)
  std::vector<Rng> rngs_;

  std::int64_t half_ = 0;
  std::vector<std::uint8_t> awake_;
  std::vector<Slot> decision_slot_;
  std::size_t woken_ = 0;      ///< nodes admitted so far
  std::size_t undecided_ = 0;  ///< nodes without a recorded decision
  std::vector<std::int64_t> tx_until_half_;
  std::vector<std::uint32_t> nbr_count_[2];
  std::vector<std::int64_t> nbr_stamp_[2];  ///< half the count is valid for
  std::vector<graph::NodeId> wake_order_[2];  ///< per parity, (wake, id)
  std::vector<graph::NodeId> awake_list_[2];  ///< per parity, wake order
  std::size_t next_wake_[2] = {0, 0};
  std::vector<ActiveTx> active_;

  RunStats stats_;
};

}  // namespace urn::radio
