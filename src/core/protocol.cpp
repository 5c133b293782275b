#include "core/protocol.hpp"

#include <algorithm>
#include <cstdlib>

#include "core/chi.hpp"
#include "obs/event.hpp"
#include "support/check.hpp"

namespace urn::core {

// The obs layer mirrors Phase as small integer codes; keep them in sync.
static_assert(static_cast<std::uint8_t>(Phase::kVerify) ==
              static_cast<std::uint8_t>(obs::PhaseCode::kVerify));
static_assert(static_cast<std::uint8_t>(Phase::kRequest) ==
              static_cast<std::uint8_t>(obs::PhaseCode::kRequest));
static_assert(static_cast<std::uint8_t>(Phase::kDecided) ==
              static_cast<std::uint8_t>(obs::PhaseCode::kDecided));

void ColoringNode::on_wake(radio::SlotContext& ctx) {
  URN_CHECK(params_ != nullptr);
  URN_CHECK(hot_ != nullptr);  // engines attach_hot before any callback
  URN_CHECK(id_ == ctx.id);
  enter_verify(0, ctx);  // upon waking up, a node is initially in A_0
}

void ColoringNode::enter_verify(std::int32_t color_index,
                                const radio::SlotContext& ctx) {
  hot_->klass[id_] = ColoringHot::kPassive;
  hot_->color[id_] = color_index;
  hot_->passive_remaining[id_] = passive_slots_;
  hot_->counter[id_] = 0;
  clear_competitors();  // P_v := ∅ (Alg. 1 l. 1)
  ++stats_.verify_states;
  record_transition(ctx.now, ctx);
}

void ColoringNode::enter_decided(std::int32_t color_index,
                                 const radio::SlotContext& ctx) {
  // kLeader ⟺ decided with color 0: only the A₀ threshold decision
  // reaches here with color_index == 0 (Alg. 3's leader entry).
  hot_->klass[id_] = color_index == 0 ? ColoringHot::kLeader
                                      : ColoringHot::kDecidedOther;
  hot_->color[id_] = color_index;  // color_v := i (Alg. 3 l. 1)
  clear_competitors();
  if (color_index == 0) {
    next_tc_ = 0;  // tc := 0, Q := ∅ (Alg. 3 l. 7–8)
    queue_.clear();
    serve_remaining_ = 0;
  }
  record_transition(ctx.now, ctx);
}

void ColoringNode::record_transition(Slot slot,
                                     const radio::SlotContext& ctx) {
  if (ctx.tracing()) {
    ctx.emit(obs::Event::phase_change(
        slot, id_, static_cast<std::uint8_t>(phase()), hot_->color[id_]));
  }
  if (transitions_.size() >= kMaxTransitions) return;
  // A well-behaved run needs ≤ κ₂ + 3 entries; one up-front reservation
  // avoids the doubling reallocations on every node's log.
  if (transitions_.empty()) transitions_.reserve(8);
  transitions_.push_back({slot, phase(), hot_->color[id_]});
}


void ColoringNode::on_receive(radio::SlotContext& ctx,
                              const radio::Message& msg) {
  switch (phase()) {
    case Phase::kVerify: {
      const std::int32_t i = hot_->color[id_];  // verifying A_i
      // A message from a node in C_i covering us (Alg. 1 l. 10/23)?
      const bool from_c0 = (msg.type == radio::MsgType::kDecided &&
                            msg.color_index == 0) ||
                           msg.type == radio::MsgType::kAssign;
      if (i == 0 && from_c0) {
        leader_ = msg.sender;  // L(v) := w
        hot_->klass[id_] = ColoringHot::kRequest;
        record_transition(ctx.now, ctx);
        return;
      }
      if (i > 0 && msg.type == radio::MsgType::kDecided &&
          msg.color_index == i) {
        enter_verify(i + 1, ctx);  // A_suc = A_{i+1}
        return;
      }
      // Competitor report M_A^i(w, c_w) (Alg. 1 l. 6–9 / 27–30).
      if (msg.type == radio::MsgType::kCompete && msg.color_index == i) {
        const bool active = hot_->klass[id_] == ColoringHot::kCount;
        std::int64_t& counter = hot_->counter[id_];
        switch (params_->reset_policy) {
          case ResetPolicy::kCriticalRange: {
            store_competitor(msg.sender, msg.counter, ctx.now);
            if (active) {
              const std::int64_t range = critical_range_now();
              if (std::llabs(counter - msg.counter) <= range) {
                counter = chi_of_competitors(ctx.now);  // Alg. 1 l. 29
                ++stats_.resets;
                if (ctx.tracing()) {
                  ctx.emit(obs::Event::reset(ctx.now, id_, i, counter));
                }
              }
            }
            break;
          }
          case ResetPolicy::kNaive: {
            // Strawman of Sect. 4: any higher counter resets us to 0.
            if (active && msg.counter > counter) {
              counter = 0;
              ++stats_.resets;
              if (ctx.tracing()) {
                ctx.emit(obs::Event::reset(ctx.now, id_, i, 0));
              }
            }
            break;
          }
          case ResetPolicy::kNone:
            break;
        }
      }
      return;
    }

    case Phase::kRequest: {
      // Alg. 2 l. 3: M_C^0(L(v), v, tc_v) from our leader, addressed to us.
      if (msg.type == radio::MsgType::kAssign && msg.sender == leader_ &&
          msg.target == id_) {
        tc_ = msg.tc;
        ++stats_.assignments_heard;
        enter_verify(params_->first_verify_color(tc_), ctx);
      }
      return;
    }

    case Phase::kDecided: {
      if (hot_->color[id_] != 0) return;
      // Leader: enqueue new requests addressed to us (Alg. 3 l. 10–12).
      if (msg.type != radio::MsgType::kRequest || msg.target != id_) return;
      const NodeId requester = msg.sender;
      if (queue_.contains(requester)) return;  // already queued
      const bool was_served =
          std::find(served_.begin(), served_.end(), requester) !=
          served_.end();
      if (was_served) {
        ++stats_.duplicate_serves;
        if (params_->remember_served) return;  // extension: never re-serve
      }
      queue_.push_back(requester);
      return;
    }
  }
}

void ColoringNode::batch_cold_slot(NodeId v, const radio::SlotContext& slot,
                                   ColoringNode* nodes, Rng* rngs,
                                   std::vector<radio::Message>& out) {
  radio::SlotContext ctx = slot;  // slot index + event hook
  ctx.id = v;
  ctx.rng = &rngs[v];
  if (std::optional<radio::Message> msg = nodes[v].on_slot(ctx)) {
    out.push_back(*msg);
    if (ctx.tracing()) ctx.emit(radio::transmit_event(ctx.now, *msg));
  }
}

void ColoringNode::store_competitor(NodeId who, std::int64_t value,
                                    Slot now) {
  const NodeId* ids = comp_who_.begin();
  const std::size_t n = comp_who_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (ids[i] == who) {
      comp_value_[i] = value;
      comp_stamp_[i] = now;
      return;
    }
  }
  comp_who_.push_back(who);
  comp_value_.push_back(value);
  comp_stamp_.push_back(now);
}

void ColoringNode::clear_competitors() {
  comp_who_.clear();
  comp_value_.clear();
  comp_stamp_.clear();
}

std::int64_t ColoringNode::chi_of_competitors(Slot now) const {
  // Scratch reused across calls (χ runs on every activation and every
  // counter reset; a per-call allocation was measurable).  thread_local
  // because experiment sweeps run one engine per worker thread.
  static thread_local std::vector<std::int64_t> aged;
  aged.clear();
  aged.reserve(comp_who_.size());
  for (std::size_t i = 0; i < comp_who_.size(); ++i) {
    aged.push_back(comp_value_[i] + (now - comp_stamp_[i]));
  }
  return chi(aged, critical_range_now());
}

// ---- postmortem checkpointing ---------------------------------------------

namespace {
/// Sanity cap on per-node container counts read from a checkpoint: a
/// node's competitors/queue/served lists are bounded by its neighborhood,
/// so anything this large marks a corrupt file, not a big run.
constexpr std::uint32_t kMaxCheckpointList = 1u << 24;
}  // namespace

void ColoringNode::save_state(obs::postmortem::Writer& w) const {
  // The URNC v1 layout predates the SoA hot block: it stores the
  // (phase, active) pair, which the klass byte round-trips through
  // losslessly (klass is a pure function of phase, active and color —
  // see load_state), so checkpoints stay byte-compatible.
  w.u8(static_cast<std::uint8_t>(phase()));
  w.boolean(hot_->klass[id_] == ColoringHot::kCount);
  w.u32(id_);
  w.i32(hot_->color[id_]);
  w.i32(tc_);
  w.i64(hot_->counter[id_]);
  w.i64(hot_->passive_remaining[id_]);
  w.u32(static_cast<std::uint32_t>(comp_who_.size()));
  for (std::size_t i = 0; i < comp_who_.size(); ++i) {
    w.u32(comp_who_[i]);
    w.i64(comp_value_[i]);
    w.i64(comp_stamp_[i]);
  }
  w.u32(leader_);
  // RingQueue serialized front-to-back; push_back on load rebuilds the
  // same FIFO order (buffer capacity is not observable state).
  w.u32(static_cast<std::uint32_t>(queue_.size()));
  for (std::size_t i = 0; i < queue_.size(); ++i) w.u32(queue_.at(i));
  w.u32(static_cast<std::uint32_t>(served_.size()));
  for (const NodeId v : served_) w.u32(v);
  w.i32(next_tc_);
  w.i64(serve_remaining_);
  w.i32(serve_tc_);
  w.u32(stats_.resets);
  w.u32(stats_.verify_states);
  w.u32(stats_.assignments_heard);
  w.u32(stats_.duplicate_serves);
  w.u32(static_cast<std::uint32_t>(transitions_.size()));
  for (const Transition& t : transitions_) {
    w.i64(t.slot);
    w.u8(static_cast<std::uint8_t>(t.phase));
    w.i32(t.color_index);
  }
}

bool ColoringNode::load_state(obs::postmortem::Reader& r) {
  URN_CHECK(hot_ != nullptr);
  const std::uint8_t phase = r.u8();
  if (phase > static_cast<std::uint8_t>(Phase::kDecided)) return false;
  const bool active = r.boolean();
  if (r.u32() != id_) return false;  // checkpoint applied to wrong node
  hot_->color[id_] = r.i32();
  tc_ = r.i32();
  hot_->counter[id_] = r.i64();
  hot_->passive_remaining[id_] = r.i64();
  // Reconstruct the klass byte from the v1 (phase, active, color) triple.
  switch (static_cast<Phase>(phase)) {
    case Phase::kVerify:
      hot_->klass[id_] = active ? ColoringHot::kCount : ColoringHot::kPassive;
      break;
    case Phase::kRequest:
      hot_->klass[id_] = ColoringHot::kRequest;
      break;
    case Phase::kDecided:
      hot_->klass[id_] = hot_->color[id_] == 0 ? ColoringHot::kLeader
                                               : ColoringHot::kDecidedOther;
      break;
  }

  const std::uint32_t n_comp = r.u32();
  if (!r.ok() || n_comp > kMaxCheckpointList) return false;
  clear_competitors();
  for (std::uint32_t i = 0; i < n_comp; ++i) {
    comp_who_.push_back(r.u32());
    comp_value_.push_back(r.i64());
    comp_stamp_.push_back(r.i64());
  }
  leader_ = r.u32();

  const std::uint32_t n_queue = r.u32();
  if (!r.ok() || n_queue > kMaxCheckpointList) return false;
  queue_.clear();
  for (std::uint32_t i = 0; i < n_queue; ++i) queue_.push_back(r.u32());

  const std::uint32_t n_served = r.u32();
  if (!r.ok() || n_served > kMaxCheckpointList) return false;
  served_.clear();
  served_.reserve(n_served);
  for (std::uint32_t i = 0; i < n_served; ++i) served_.push_back(r.u32());

  next_tc_ = r.i32();
  serve_remaining_ = r.i64();
  serve_tc_ = r.i32();
  stats_.resets = r.u32();
  stats_.verify_states = r.u32();
  stats_.assignments_heard = r.u32();
  stats_.duplicate_serves = r.u32();

  const std::uint32_t n_trans = r.u32();
  if (!r.ok() || n_trans > kMaxTransitions) return false;
  transitions_.clear();
  transitions_.reserve(n_trans);
  for (std::uint32_t i = 0; i < n_trans; ++i) {
    Transition t;
    t.slot = r.i64();
    t.phase = static_cast<Phase>(r.u8());
    t.color_index = r.i32();
    transitions_.push_back(t);
  }
  return r.ok();
}

}  // namespace urn::core
