#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "obs/fig2.hpp"

namespace urn::obs {

bool write_jsonl_file(const std::string& path,
                      const std::vector<Event>& events) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::string buffer;  // written in ~64 KiB chunks, not per event
  bool ok = true;
  for (std::size_t i = 0; i < events.size() && ok; ++i) {
    append_jsonl(buffer, events[i]);
    if (buffer.size() >= (std::size_t{1} << 16) || i + 1 == events.size()) {
      ok = std::fwrite(buffer.data(), 1, buffer.size(), f) == buffer.size();
      buffer.clear();
    }
  }
  return std::fclose(f) == 0 && ok;
}

std::vector<NodeTimeline> build_timelines(const std::vector<Event>& events) {
  std::map<NodeId, NodeTimeline> by_node;
  auto timeline = [&by_node](NodeId v) -> NodeTimeline& {
    NodeTimeline& t = by_node[v];
    t.node = v;
    return t;
  };
  for (const Event& e : events) {
    NodeTimeline& t = timeline(e.node);
    switch (e.kind) {
      case EventKind::kWake:
        if (t.wake_slot < 0) t.wake_slot = e.slot;
        break;
      case EventKind::kTransmit:
        ++t.transmissions;
        break;
      case EventKind::kDelivery:
        ++t.deliveries;
        break;
      case EventKind::kCollision:
        ++t.collisions;
        break;
      case EventKind::kDrop:
        break;  // counted at neither endpoint: a drop is a non-event to v
      case EventKind::kPhase:
        t.phases.push_back(e);
        if (e.phase == static_cast<std::uint8_t>(PhaseCode::kDecided)) {
          if (t.decision_slot < 0) t.decision_slot = e.slot;
          t.final_color = e.color;
        }
        break;
      case EventKind::kReset:
        ++t.resets;
        break;
      case EventKind::kDecision:
        if (t.decision_slot < 0) t.decision_slot = e.slot;
        if (e.color >= 0) t.final_color = e.color;
        break;
      case EventKind::kServe:
        break;
    }
  }
  std::vector<NodeTimeline> out;
  out.reserve(by_node.size());
  for (auto& [v, t] : by_node) out.push_back(std::move(t));
  return out;
}

Fig2Report validate_fig2(const std::vector<Event>& events,
                         std::uint32_t kappa2) {
  Fig2Report report;
  const std::vector<NodeTimeline> timelines = build_timelines(events);
  report.nodes_checked = timelines.size();

  // The transition table itself lives in Fig2Walker (shared with the
  // online InvariantMonitorSink); this replay only adds the two checks
  // that need the whole stream: "woke but never entered A0" and the
  // decision-event/final-transition agreement.
  for (const NodeTimeline& t : timelines) {
    auto violate = [&report, &t](Slot slot, std::string what) {
      report.violations.push_back({t.node, slot, std::move(what)});
    };

    if (t.phases.empty()) {
      if (t.wake_slot >= 0) {
        violate(t.wake_slot, "woke but recorded no A0 entry");
      }
      continue;
    }

    Fig2Walker walker(kappa2);
    if (t.wake_slot >= 0) walker.wake(t.wake_slot);
    for (const Event& p : t.phases) {
      for (std::string& err : walker.advance(p)) {
        violate(p.slot, std::move(err));
      }
    }
    report.transitions_checked += walker.transitions_checked();

    // A recorded decision event must agree with the final C_i entry.
    if (t.decision_slot >= 0 && walker.decided() &&
        t.final_color != walker.decided_color()) {
      violate(t.decision_slot, "decision event color disagrees with the "
                               "final decided transition");
    }
  }
  return report;
}

}  // namespace urn::obs
