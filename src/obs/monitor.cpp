#include "obs/monitor.hpp"

#include <utility>

namespace urn::obs {

const char* invariant_name(Invariant inv) {
  switch (inv) {
    case Invariant::kPhaseLegality: return "phase";
    case Invariant::kColorConflict: return "color-conflict";
    case Invariant::kLeaderIndependence: return "leader-independence";
    case Invariant::kLocality: return "locality";
    case Invariant::kLatency: return "latency";
  }
  return "?";
}

void print_monitor_report(const MonitorReport& report, std::FILE* out) {
  std::fprintf(out,
               "monitor: %llu violation(s) over %llu events, %zu nodes\n",
               static_cast<unsigned long long>(report.total_violations()),
               static_cast<unsigned long long>(report.events_seen),
               report.nodes_seen);
  for (std::size_t i = 0; i < kNumInvariants; ++i) {
    const MonitorReport::PerInvariant& p = report.invariants[i];
    if (p.count == 0) continue;
    std::fprintf(out,
                 "  %-19s %llu violation(s); first at slot %lld node %u: "
                 "%s\n",
                 invariant_name(static_cast<Invariant>(i)),
                 static_cast<unsigned long long>(p.count),
                 static_cast<long long>(p.first_slot), p.first_node,
                 p.first_what.c_str());
  }
}

const MonitorReport::PerInvariant* first_violation(
    const MonitorReport& report, Invariant* which) {
  const MonitorReport::PerInvariant* best = nullptr;
  for (std::size_t i = 0; i < kNumInvariants; ++i) {
    const MonitorReport::PerInvariant& p = report.invariants[i];
    if (p.count == 0) continue;
    if (best == nullptr || p.first_slot < best->first_slot) {
      best = &p;
      if (which != nullptr) *which = static_cast<Invariant>(i);
    }
  }
  return best;
}

void print_first_violation(const MonitorReport& report, std::FILE* out) {
  Invariant which{};
  const MonitorReport::PerInvariant* first = first_violation(report, &which);
  if (first == nullptr) return;
  std::fprintf(out, "first violation: invariant=%s slot=%lld node=%u\n",
               invariant_name(which),
               static_cast<long long>(first->first_slot), first->first_node);
}

InvariantMonitorSink::NodeState& InvariantMonitorSink::state(NodeId v) {
  return nodes_.try_emplace(v, config_.kappa2).first->second;
}

void InvariantMonitorSink::violation(Invariant inv, Slot slot, NodeId node,
                                     std::string what) {
  MonitorReport::PerInvariant& p =
      report_.invariants[static_cast<std::size_t>(inv)];
  if (p.count == 0) {
    p.first_slot = slot;
    p.first_node = node;
    p.first_what = std::move(what);
  }
  ++p.count;
}

void InvariantMonitorSink::on_decided(NodeId v, Slot slot,
                                      std::int32_t color) {
  NodeState& s = state(v);
  if (s.decided) return;
  s.decided = true;
  s.color = color;

  if (config_.latency_budget > 0 && s.walker.woke()) {
    const Slot latency = slot - s.walker.wake_slot();
    if (latency > config_.latency_budget) {
      violation(Invariant::kLatency, slot, v,
                "T_v = " + std::to_string(latency) +
                    " exceeds the decision budget of " +
                    std::to_string(config_.latency_budget) + " slots");
    }
  }
  if (color < 0) return;

  if (config_.kappa2 > 0 && v < config_.theta.size()) {
    const auto k2 = static_cast<std::int64_t>(config_.kappa2);
    const std::int64_t bound =
        (k2 + 1) * static_cast<std::int64_t>(config_.theta[v]) + k2;
    if (color > bound) {
      violation(Invariant::kLocality, slot, v,
                "color " + std::to_string(color) +
                    " exceeds the Theorem 4 bound (k2+1)*theta+k2 = " +
                    std::to_string(bound) +
                    " (theta_v = " + std::to_string(config_.theta[v]) + ")");
    }
  }

  if (config_.adj_offsets.empty() ||
      static_cast<std::size_t>(v) + 1 >= config_.adj_offsets.size()) {
    return;
  }
  for (std::uint32_t i = config_.adj_offsets[v];
       i < config_.adj_offsets[v + 1]; ++i) {
    const NodeId u = config_.adj[i];
    const auto it = nodes_.find(u);
    if (it == nodes_.end() || !it->second.decided) continue;
    if (it->second.color != color) continue;
    violation(Invariant::kColorConflict, slot, v,
              "decided color " + std::to_string(color) +
                  " already held by adjacent node " + std::to_string(u));
    if (color == 0) {
      violation(Invariant::kLeaderIndependence, slot, v,
                "joined C0 while adjacent node " + std::to_string(u) +
                    " is already a leader");
    }
  }
}

void InvariantMonitorSink::check(const Event& e) {
  switch (e.kind) {
    case EventKind::kWake:
      state(e.node).walker.wake(e.slot);
      break;
    case EventKind::kPhase: {
      NodeState& s = state(e.node);
      for (std::string& err : s.walker.advance(e)) {
        violation(Invariant::kPhaseLegality, e.slot, e.node,
                  std::move(err));
      }
      if (e.phase == static_cast<std::uint8_t>(PhaseCode::kDecided)) {
        on_decided(e.node, e.slot, e.color);
      }
      break;
    }
    case EventKind::kDecision: {
      NodeState& s = state(e.node);
      if (std::string err = s.walker.observe_decision(e); !err.empty()) {
        violation(Invariant::kPhaseLegality, e.slot, e.node,
                  std::move(err));
      }
      on_decided(e.node, e.slot, e.color);
      break;
    }
    default:
      break;  // `record` passes no other kind
  }
}

MonitorReport InvariantMonitorSink::report() const {
  MonitorReport out = report_;
  out.nodes_seen = nodes_.size();
  return out;
}

}  // namespace urn::obs
