#include "obs/explain.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <unordered_set>
#include <utility>

#include "obs/chrome.hpp"
#include "obs/fig2.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace urn::obs {

namespace {

/// Round-trip-exact number rendering: integers as integers, everything
/// else with 17 significant digits.
std::string num_text(double v) {
  std::string out;
  if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    json::append_int(out, static_cast<std::int64_t>(v));
    return out;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out.append(buf);
  return out;
}

/// Same-slot claim priority: a collision outranks a drop outranks a
/// contention mark.  (The engine never emits two of these for one node
/// in one slot — a sender cannot listen, and a unique transmission is
/// either dropped or delivered — but handcrafted traces get the
/// deterministic resolution instead of double counting.)
int claim_rank(Cause c) {
  switch (c) {
    case Cause::kCollision: return 3;
    case Cause::kDrop: return 2;
    default: return 1;
  }
}

struct Claim {
  Slot slot = 0;
  Cause cause = Cause::kIdle;
};

/// Per-node working state for the single pass over the trace.
struct NodeWork {
  Fig2Walker walker;
  Slot wake = -1;
  Slot decision = -1;
  std::int32_t final_color = -1;
  bool decided = false;
  std::uint32_t resets = 0;
  std::vector<Event> phases;  ///< kPhase events, trace order
  std::vector<Claim> claims;  ///< per-slot claims, slot order, deduped

  explicit NodeWork(std::uint32_t kappa2) : walker(kappa2) {}

  void claim(Slot s, Cause c) {
    if (!claims.empty() && claims.back().slot == s) {
      if (claim_rank(c) > claim_rank(claims.back().cause)) {
        claims.back().cause = c;
      }
      return;
    }
    claims.push_back({s, c});
  }
};

/// Append `[begin, end) → cause`, merging with an adjacent same-cause
/// predecessor.
void emit_span(std::vector<CauseSpan>* spans, Slot begin, Slot end, Cause c) {
  if (spans == nullptr || end <= begin) return;
  if (!spans->empty() && spans->back().end == begin &&
      spans->back().cause == c) {
    spans->back().end = end;
    return;
  }
  spans->push_back({begin, end, c});
}

/// Unclaimed slots of `[begin, end)` default to kPhaseWait up to
/// `passive_end` and kIdle after it; spans split accordingly.
void emit_default(std::vector<CauseSpan>* spans, Slot begin, Slot end,
                  Slot passive_end, Cause wait_cause) {
  const Slot mid = std::clamp(passive_end, begin, end);
  emit_span(spans, begin, mid, wait_cause);
  emit_span(spans, mid, end, Cause::kIdle);
}

}  // namespace

const char* cause_name(Cause c) {
  switch (c) {
    case Cause::kAsleep: return "asleep";
    case Cause::kPhaseWait: return "phase_wait";
    case Cause::kCollision: return "collision";
    case Cause::kDrop: return "drop";
    case Cause::kContention: return "contention";
    case Cause::kIdle: return "idle";
  }
  return "?";
}

const char* phase_bucket_name(PhaseBucket b) {
  switch (b) {
    case PhaseBucket::kA0: return "a0";
    case PhaseBucket::kAi: return "ai";
    case PhaseBucket::kR: return "r";
  }
  return "?";
}

TraceStats compute_trace_stats(const std::vector<Event>& events) {
  TraceStats stats;
  stats.events = events.size();
  std::unordered_set<NodeId> ids;  // distinct nodes: a few hundred, not
                                   // one entry per event to sort
  bool any_slot = false;
  for (const Event& e : events) {
    const auto kind = static_cast<std::size_t>(e.kind);
    if (kind < kNumEventKinds) ++stats.by_kind[kind];
    if (!any_slot) {
      any_slot = true;
      stats.first_slot = stats.last_slot = e.slot;
    } else {
      stats.first_slot = std::min(stats.first_slot, e.slot);
      stats.last_slot = std::max(stats.last_slot, e.slot);
    }
    if (e.node != kNoNode) ids.insert(e.node);
  }
  stats.nodes = ids.size();
  return stats;
}

std::string TraceStats::one_line() const {
  std::string out;
  out.append("events=");
  json::append_int(out, static_cast<std::int64_t>(events));
  out.append(" nodes=");
  json::append_int(out, static_cast<std::int64_t>(nodes));
  out.append(" slots=[");
  json::append_int(out, first_slot);
  out.push_back(',');
  json::append_int(out, last_slot);
  out.push_back(']');
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    out.push_back(' ');
    out.append(kind_name(static_cast<EventKind>(k)));
    out.push_back('=');
    json::append_int(out, static_cast<std::int64_t>(by_kind[k]));
  }
  return out;
}

double ExplainReport::share(Cause c) const {
  if (c == Cause::kAsleep) return 0.0;
  const std::int64_t denom = total_stall();
  if (denom <= 0) return 0.0;
  return static_cast<double>(totals[static_cast<std::size_t>(c)]) /
         static_cast<double>(denom);
}

Cause ExplainReport::top_cause() const {
  std::size_t best = 1;
  for (std::size_t c = 2; c < kNumCauses; ++c) {
    if (totals[c] > totals[best]) best = c;
  }
  return static_cast<Cause>(best);
}

ExplainReport explain_trace(const std::vector<Event>& events,
                            const ExplainConfig& config) {
  ExplainReport report;
  report.config = config;
  report.stats = compute_trace_stats(events);

  // Pass 1: bucket the stream per node (std::map keeps ascending ids,
  // mirroring build_timelines).
  std::map<NodeId, NodeWork> work;
  auto node_work = [&](NodeId v) -> NodeWork& {
    auto it = work.find(v);
    if (it == work.end()) {
      it = work.emplace(v, NodeWork(config.kappa2)).first;
    }
    return it->second;
  };
  for (const Event& e : events) {
    if (e.node == kNoNode) continue;
    NodeWork& w = node_work(e.node);
    switch (e.kind) {
      case EventKind::kWake:
        if (w.wake < 0) w.wake = e.slot;
        w.walker.wake(e.slot);
        break;
      case EventKind::kPhase: {
        report.fig2_violations += w.walker.advance(e).size();
        w.phases.push_back(e);
        if (e.phase == static_cast<std::uint8_t>(PhaseCode::kDecided) &&
            !w.decided) {
          w.decided = true;
          w.decision = e.slot;
          w.final_color = e.color;
        }
        break;
      }
      case EventKind::kDecision: {
        if (!w.walker.observe_decision(e).empty()) ++report.fig2_violations;
        if (!w.decided) {
          w.decided = true;
          w.decision = e.slot;
          w.final_color = e.color;
        }
        break;
      }
      case EventKind::kCollision:
        w.claim(e.slot, Cause::kCollision);
        break;
      case EventKind::kDrop:
        w.claim(e.slot, Cause::kDrop);
        break;
      case EventKind::kReset:
        ++w.resets;
        w.claim(e.slot, Cause::kContention);
        break;
      case EventKind::kTransmit:
        w.claim(e.slot, Cause::kContention);
        break;
      case EventKind::kDelivery:
      case EventKind::kServe:
        break;  // heard content — classified by the interval default
    }
  }

  // Pass 2: per node, partition [wake, window_end) into Fig. 2 phase
  // intervals and classify each slot (claims override the interval
  // default; unclaimed passive slots are protocol wait, unclaimed
  // active slots are idle backoff).
  report.nodes.reserve(work.size());
  if (config.collect_spans) report.spans.reserve(work.size());
  for (auto& [id, w] : work) {
    NodeAttribution attr;
    attr.node = id;
    attr.wake_slot = w.wake;
    attr.decision_slot = w.decided ? w.decision : -1;
    attr.final_color = w.final_color;
    attr.resets = w.resets;
    attr.decided = w.decided;

    std::vector<CauseSpan> node_spans;
    std::vector<CauseSpan>* spans =
        config.collect_spans ? &node_spans : nullptr;

    if (w.wake >= 0) {
      const Slot window_end =
          w.decided ? w.decision : report.stats.last_slot + 1;
      attr.causes[static_cast<std::size_t>(Cause::kAsleep)] = w.wake;
      emit_span(spans, 0, w.wake, Cause::kAsleep);

      std::size_t next_claim = 0;
      auto close_interval = [&](Slot begin, Slot end, PhaseBucket bucket,
                                Slot passive_until) {
        if (end <= begin) return;
        const std::size_t b = static_cast<std::size_t>(bucket);
        // R-phase slots are protocol wait throughout: the node is
        // parked until a leader serves it.
        const Slot passive_end = bucket == PhaseBucket::kR
                                     ? end
                                     : std::clamp(passive_until, begin, end);
        auto account = [&](Cause c, std::int64_t n) {
          attr.causes[static_cast<std::size_t>(c)] += n;
          attr.by_phase[b][static_cast<std::size_t>(c)] += n;
        };
        Slot cursor = begin;
        std::int64_t claimed_passive = 0;
        std::int64_t claimed_active = 0;
        while (next_claim < w.claims.size() &&
               w.claims[next_claim].slot < end) {
          const Claim& c = w.claims[next_claim];
          ++next_claim;
          if (c.slot < begin) continue;  // pre-wake claim; not expected
          account(c.cause, 1);
          (c.slot < passive_end ? claimed_passive : claimed_active) += 1;
          emit_default(spans, cursor, c.slot, passive_end,
                       Cause::kPhaseWait);
          emit_span(spans, c.slot, c.slot + 1, c.cause);
          cursor = c.slot + 1;
        }
        emit_default(spans, cursor, end, passive_end, Cause::kPhaseWait);
        account(Cause::kPhaseWait, (passive_end - begin) - claimed_passive);
        account(Cause::kIdle, (end - passive_end) - claimed_active);
      };

      // Walk the phase events: each one closes the previous interval.
      // A₀ starts at wake with its passive prefix, whether or not the
      // entry event survives in the trace.
      Slot cursor = w.wake;
      PhaseBucket bucket = PhaseBucket::kA0;
      Slot passive_until = w.wake + config.passive_slots;
      for (const Event& p : w.phases) {
        const Slot s = std::clamp(p.slot, w.wake, window_end);
        close_interval(cursor, s, bucket, passive_until);
        cursor = s;
        if (p.phase == static_cast<std::uint8_t>(PhaseCode::kDecided)) break;
        if (p.phase == static_cast<std::uint8_t>(PhaseCode::kRequest)) {
          bucket = PhaseBucket::kR;
          passive_until = s;
        } else {
          bucket = p.color == 0 ? PhaseBucket::kA0 : PhaseBucket::kAi;
          passive_until = s + config.passive_slots;
        }
      }
      close_interval(cursor, window_end, bucket, passive_until);
    }

    for (std::size_t b = 0; b < kNumPhaseBuckets; ++b) {
      for (std::size_t c = 0; c < kNumCauses; ++c) {
        attr.phase_slots[b] += attr.by_phase[b][c];
        report.phase_totals[b][c] += attr.by_phase[b][c];
      }
    }
    for (std::size_t c = 0; c < kNumCauses; ++c) {
      report.totals[c] += attr.causes[c];
    }
    if (attr.decided) {
      ++report.decided_nodes;
      if (attr.exact()) ++report.exact_nodes;
    }
    report.nodes.push_back(attr);
    if (config.collect_spans) report.spans.push_back(std::move(node_spans));
  }
  return report;
}

ExplainDiff diff_explain(const ExplainReport& a, const ExplainReport& b,
                         const ExplainDiffOptions& options) {
  ExplainDiff diff;

  // Per-decided-node cause vectors; column 0 doubles as the asleep
  // (wake-offset) sample, the rest are the stall decomposition.
  auto gather = [](const ExplainReport& r) {
    std::vector<std::array<std::int64_t, kNumCauses>> rows;
    rows.reserve(r.nodes.size());
    for (const NodeAttribution& n : r.nodes) {
      if (!n.decided) continue;
      std::array<std::int64_t, kNumCauses> row{};
      for (std::size_t c = 0; c < kNumCauses; ++c) row[c] = n.causes[c];
      rows.push_back(row);
    }
    return rows;
  };
  const auto rows_a = gather(a);
  const auto rows_b = gather(b);
  diff.nodes_a = rows_a.size();
  diff.nodes_b = rows_b.size();

  auto mean_latency = [](const ExplainReport& r) {
    std::int64_t total = 0;
    std::size_t n = 0;
    for (const NodeAttribution& node : r.nodes) {
      if (!node.decided) continue;
      total += node.latency();
      ++n;
    }
    return n ? static_cast<double>(total) / static_cast<double>(n) : 0.0;
  };
  diff.mean_latency_a = mean_latency(a);
  diff.mean_latency_b = mean_latency(b);
  diff.speedup = diff.mean_latency_b > 0.0
                     ? diff.mean_latency_a / diff.mean_latency_b
                     : 0.0;

  for (std::size_t c = 0; c < kNumCauses; ++c) {
    CauseDelta& d = diff.causes[c];
    d.cause = static_cast<Cause>(c);
    d.slots_a = a.totals[c];
    d.slots_b = b.totals[c];
    d.share_a = a.share(d.cause);
    d.share_b = b.share(d.cause);
    auto mean_of = [c](const std::vector<std::array<std::int64_t,
                                                    kNumCauses>>& rows) {
      if (rows.empty()) return 0.0;
      std::int64_t total = 0;
      for (const auto& row : rows) total += row[c];
      return static_cast<double>(total) / static_cast<double>(rows.size());
    };
    d.mean_a = mean_of(rows_a);
    d.mean_b = mean_of(rows_b);
    d.delta_mean = d.mean_b - d.mean_a;
  }

  // Bootstrap: resample nodes with replacement, independently per run,
  // from one deterministic stream (fixed draw order: per round, all of
  // A's indices then all of B's — so the CIs replay bit-identically).
  if (!rows_a.empty() && !rows_b.empty() && options.resamples > 0) {
    Rng rng(options.seed);
    std::array<Samples, kNumCauses> deltas;
    for (std::size_t round = 0; round < options.resamples; ++round) {
      std::array<std::int64_t, kNumCauses> sum_a{};
      std::array<std::int64_t, kNumCauses> sum_b{};
      for (std::size_t i = 0; i < rows_a.size(); ++i) {
        const auto& row = rows_a[rng.below(rows_a.size())];
        for (std::size_t c = 0; c < kNumCauses; ++c) sum_a[c] += row[c];
      }
      for (std::size_t i = 0; i < rows_b.size(); ++i) {
        const auto& row = rows_b[rng.below(rows_b.size())];
        for (std::size_t c = 0; c < kNumCauses; ++c) sum_b[c] += row[c];
      }
      for (std::size_t c = 0; c < kNumCauses; ++c) {
        deltas[c].add(static_cast<double>(sum_b[c]) /
                          static_cast<double>(rows_b.size()) -
                      static_cast<double>(sum_a[c]) /
                          static_cast<double>(rows_a.size()));
      }
    }
    const double tail = 100.0 * (1.0 - options.confidence) / 2.0;
    for (std::size_t c = 0; c < kNumCauses; ++c) {
      CauseDelta& d = diff.causes[c];
      d.ci_lo = deltas[c].percentile(tail);
      d.ci_hi = deltas[c].percentile(100.0 - tail);
      d.significant = d.ci_lo > 0.0 || d.ci_hi < 0.0;
    }
  }
  return diff;
}

json::Doc explain_doc(const ExplainReport& report) {
  json::Doc doc;
  auto num = [&](std::string key, double v) {
    doc.add_raw(std::move(key), num_text(v));
  };
  num("explain.nodes", static_cast<double>(report.nodes.size()));
  num("explain.decided", static_cast<double>(report.decided_nodes));
  num("explain.exact", static_cast<double>(report.exact_nodes));
  num("explain.violations", static_cast<double>(report.fig2_violations));
  num("explain.total_stall", static_cast<double>(report.total_stall()));
  doc.add("explain.top_cause", cause_name(report.top_cause()));
  for (std::size_t c = 0; c < kNumCauses; ++c) {
    const auto cause = static_cast<Cause>(c);
    const std::string base = std::string("explain.cause.") + cause_name(cause);
    num(base + ".slots", static_cast<double>(report.totals[c]));
    if (cause != Cause::kAsleep) num(base + ".share", report.share(cause));
  }
  for (std::size_t b = 0; b < kNumPhaseBuckets; ++b) {
    const auto bucket = static_cast<PhaseBucket>(b);
    const std::string base =
        std::string("explain.phase.") + phase_bucket_name(bucket);
    std::int64_t slots = 0;
    Samples per_node;
    for (const NodeAttribution& n : report.nodes) {
      if (n.wake_slot < 0) continue;
      slots += n.phase_slots[b];
      if (n.decided) per_node.add(static_cast<double>(n.phase_slots[b]));
    }
    num(base + ".slots", static_cast<double>(slots));
    num(base + ".p50", per_node.count() ? per_node.percentile(50.0) : 0.0);
    num(base + ".p95", per_node.count() ? per_node.percentile(95.0) : 0.0);
  }
  return doc;
}

json::Doc explain_diff_doc(const ExplainDiff& diff) {
  json::Doc doc;
  auto num = [&](std::string key, double v) {
    doc.add_raw(std::move(key), num_text(v));
  };
  num("diff.nodes_a", static_cast<double>(diff.nodes_a));
  num("diff.nodes_b", static_cast<double>(diff.nodes_b));
  num("diff.mean_latency_a", diff.mean_latency_a);
  num("diff.mean_latency_b", diff.mean_latency_b);
  num("diff.speedup", diff.speedup);
  for (const CauseDelta& d : diff.causes) {
    const std::string base = std::string("diff.cause.") + cause_name(d.cause);
    num(base + ".slots_a", static_cast<double>(d.slots_a));
    num(base + ".slots_b", static_cast<double>(d.slots_b));
    num(base + ".share_a", d.share_a);
    num(base + ".share_b", d.share_b);
    num(base + ".mean_a", d.mean_a);
    num(base + ".mean_b", d.mean_b);
    num(base + ".delta_mean", d.delta_mean);
    num(base + ".ci_lo", d.ci_lo);
    num(base + ".ci_hi", d.ci_hi);
    num(base + ".significant", d.significant ? 1.0 : 0.0);
  }
  return doc;
}

bool write_explain_chrome_file(const std::string& path,
                               const ExplainReport& report) {
  if (report.spans.size() != report.nodes.size()) return false;
  std::ofstream os(path);
  if (!os) return false;
  // One thread track per node; each cause span is an X slice with the
  // same slot-as-µs timebase as the phase timeline export, so the two
  // files line up when loaded side by side in Perfetto.
  ChromeTraceWriter writer(os);
  constexpr int kPid = ChromeTraceWriter::kSlotPid;
  writer.name_process(kPid, "latency causes (one track per node)");
  for (std::size_t i = 0; i < report.nodes.size(); ++i) {
    const NodeId v = report.nodes[i].node;
    writer.name_thread(kPid, v, "node " + std::to_string(v));
    for (const CauseSpan& s : report.spans[i]) {
      writer.slice(cause_name(s.cause), "cause", s.begin, s.end - s.begin,
                   kPid, v);
    }
  }
  writer.finish();
  os.flush();
  return static_cast<bool>(os);
}

}  // namespace urn::obs
