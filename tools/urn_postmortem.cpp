/// \file urn_postmortem.cpp
/// \brief Inspect and resume postmortem bundles (obs/postmortem.hpp).
///
/// A bundle directory (written by `--postmortem-dir` on urn_sim and the
/// experiment binaries) holds a versioned engine checkpoint
/// (`checkpoint.urnc`), the flight-recorder event ring (`ring.bin`), a
/// `manifest.json`, and — when a violation was captured — `monitor.json`
/// (+ `telemetry.json`).  This tool renders all of that human-readable
/// and replays the checkpoint:
///
///   urn_postmortem --in out/pm/trial0000                # inspect bundle
///   urn_postmortem --in ckpt.urnc --node 17 --tail 50   # one node's view
///   urn_postmortem --in out/pm/trial0000 --resume       # re-run from it
///
/// `--resume` rebuilds the checkpointed engine (aligned or misaligned),
/// restores its state and runs to the scenario's slot budget; the result
/// is bit-identical to the uninterrupted run (same RNG draws, same
/// RunStats, same coloring).  Exit codes: 0 = ok (resume: valid
/// coloring), 1 = resumed run invalid/incomplete, 2 = unreadable input.

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "obs/bintrace.hpp"
#include "obs/event.hpp"
#include "support/cli.hpp"

namespace {

using namespace urn;

[[nodiscard]] bool is_directory(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

[[nodiscard]] bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

/// Print a small text file (manifest.json, CRASH.txt) verbatim, indented.
void print_file(const std::string& label, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return;
  std::printf("%s:\n", label.c_str());
  char buf[4096];
  std::string body;
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    body.append(buf, got);
  }
  std::fclose(f);
  std::printf("  ");
  for (const char c : body) {
    std::putchar(c);
    if (c == '\n') std::printf("  ");
  }
  std::printf("\n");
}

void print_event(const obs::Event& e) {
  std::printf("  slot %-7lld node %-5u %-12s", static_cast<long long>(e.slot),
              e.node, obs::kind_name(e.kind));
  switch (e.kind) {
    case obs::EventKind::kTransmit:
    case obs::EventKind::kDelivery:
    case obs::EventKind::kDrop:
      std::printf(" msg=%s color=%d value=%lld", obs::msg_name(e.msg),
                  e.color, static_cast<long long>(e.value));
      if (e.peer != obs::kNoNode) std::printf(" peer=%u", e.peer);
      break;
    case obs::EventKind::kPhase:
      std::printf(" phase=%s color=%d", obs::phase_name(e.phase), e.color);
      break;
    case obs::EventKind::kReset:
      std::printf(" color=%d counter=%lld", e.color,
                  static_cast<long long>(e.value));
      break;
    default:
      break;
  }
  std::printf("\n");
}

void print_timeline(const std::string& ring_path, std::int64_t node,
                    std::int64_t around, std::int64_t window,
                    std::int64_t tail) {
  const obs::ParsedTraceFile ring = obs::read_trace_file(ring_path);
  if (!ring.ok) {
    std::printf("ring: unreadable (%s)\n", ring.error.c_str());
    return;
  }
  std::vector<obs::Event> events;
  events.reserve(ring.events.size());
  for (const obs::Event& e : ring.events) {
    if (node >= 0 && static_cast<std::int64_t>(e.node) != node &&
        static_cast<std::int64_t>(e.peer) != node) {
      continue;
    }
    if (around >= 0 &&
        (e.slot < around - window || e.slot > around + window)) {
      continue;
    }
    events.push_back(e);
  }
  const std::size_t show =
      tail > 0 ? std::min<std::size_t>(events.size(),
                                       static_cast<std::size_t>(tail))
               : events.size();
  std::printf("ring: %zu events retained (%llu dropped upstream), "
              "%zu after filters, showing last %zu\n",
              ring.events.size(),
              static_cast<unsigned long long>(ring.dropped), events.size(),
              show);
  for (std::size_t i = events.size() - show; i < events.size(); ++i) {
    print_event(events[i]);
  }
}

int inspect(const core::LoadedCheckpoint& ck, const std::string& bundle_dir,
            const std::string& ckpt_path, std::int64_t node,
            std::int64_t around, std::int64_t window, std::int64_t tail,
            std::int64_t max_nodes) {
  const core::CheckpointScenario& s = ck.scenario;
  std::printf("checkpoint: %s\n", ckpt_path.c_str());
  std::printf("  version %u, engine %s, position %lld (%s)\n", ck.version,
              ck.kind == obs::postmortem::EngineKind::kAligned
                  ? "aligned"
                  : "misaligned",
              static_cast<long long>(ck.position),
              ck.kind == obs::postmortem::EngineKind::kAligned
                  ? "slot"
                  : "half-slot");
  std::printf("scenario: n=%zu edges=%zu seed=%llu trial=%llu "
              "max_slots=%lld drop=%.3f\n",
              s.num_nodes, s.edges.size(),
              static_cast<unsigned long long>(s.seed),
              static_cast<unsigned long long>(s.trial),
              static_cast<long long>(s.max_slots),
              s.medium.drop_probability);

  const core::CheckpointSummary sum = core::describe_checkpoint(ck);
  if (!sum.ok) {
    std::fprintf(stderr, "error: %s\n", sum.error.c_str());
    return 2;
  }
  std::printf("state: awake=%zu decided=%zu dead=%zu | medium: tx=%llu "
              "deliveries=%llu collisions=%llu dropped=%llu\n",
              sum.awake, sum.decided, sum.dead,
              static_cast<unsigned long long>(sum.stats.transmissions),
              static_cast<unsigned long long>(sum.stats.deliveries),
              static_cast<unsigned long long>(sum.stats.collisions),
              static_cast<unsigned long long>(sum.stats.dropped));

  std::printf("nodes:%s\n",
              node >= 0 ? "" : (max_nodes > 0 ? " (interesting first)" : ""));
  std::printf("  %-6s %-8s %6s %9s %4s %6s %7s %9s %6s\n", "node", "phase",
              "color", "counter", "dec", "awake", "leader", "dec_slot",
              "|P_v|");
  // With no --node filter, show undecided/awake nodes first (the ones a
  // postmortem usually cares about), then decided ones, up to the cap.
  std::vector<std::size_t> order;
  for (std::size_t v = 0; v < sum.nodes.size(); ++v) {
    if (node >= 0 && static_cast<std::int64_t>(v) != node) continue;
    order.push_back(v);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const auto rank = [&](const core::NodeSnapshot& ns) {
                       if (ns.awake && !ns.decided) return 0;
                       if (!ns.awake) return 1;
                       return 2;
                     };
                     return rank(sum.nodes[a]) < rank(sum.nodes[b]);
                   });
  std::size_t shown = 0;
  for (const std::size_t v : order) {
    if (node < 0 && max_nodes > 0 &&
        shown >= static_cast<std::size_t>(max_nodes)) {
      std::printf("  ... %zu more (raise --max-nodes or use --node)\n",
                  order.size() - shown);
      break;
    }
    const core::NodeSnapshot& ns = sum.nodes[v];
    char leader[16];
    if (ns.leader == graph::kInvalidNode) {
      std::snprintf(leader, sizeof(leader), "-");
    } else {
      std::snprintf(leader, sizeof(leader), "%u", ns.leader);
    }
    std::printf("  %-6zu %-8s %6d %9lld %4s %6s %7s %9lld %6zu%s\n", v,
                obs::phase_name(ns.phase), ns.color_index,
                static_cast<long long>(ns.counter), ns.decided ? "yes" : "no",
                ns.awake ? "yes" : "no", leader,
                static_cast<long long>(ns.decision_slot), ns.competitors,
                ns.dead ? "  DEAD" : "");
    ++shown;
  }

  if (!bundle_dir.empty()) {
    const std::string ring =
        bundle_dir + "/" + obs::postmortem::kRingFileName;
    if (file_exists(ring)) print_timeline(ring, node, around, window, tail);
    print_file("manifest",
               bundle_dir + "/" + obs::postmortem::kManifestFileName);
    if (file_exists(bundle_dir + "/" +
                    obs::postmortem::kMonitorFileName)) {
      print_file("monitor (violations captured)",
                 bundle_dir + "/" + obs::postmortem::kMonitorFileName);
    }
    if (file_exists(bundle_dir + "/CRASH.txt")) {
      print_file("CRASH", bundle_dir + "/CRASH.txt");
    }
  }
  return 0;
}

int resume(const core::LoadedCheckpoint& ck) {
  std::printf("resume: %s engine from position %lld\n",
              ck.kind == obs::postmortem::EngineKind::kAligned
                  ? "aligned"
                  : "misaligned",
              static_cast<long long>(ck.position));
  const core::ResumeResult res = core::resume_coloring(ck);
  if (!res.ok) {
    std::fprintf(stderr, "error: %s\n", res.error.c_str());
    return 2;
  }
  const core::RunResult& run = res.run;
  std::printf("resumed: slots_run=%lld tx=%llu deliveries=%llu "
              "collisions=%llu dropped=%llu all_decided=%s\n",
              static_cast<long long>(run.medium.slots_run),
              static_cast<unsigned long long>(run.medium.transmissions),
              static_cast<unsigned long long>(run.medium.deliveries),
              static_cast<unsigned long long>(run.medium.collisions),
              static_cast<unsigned long long>(run.medium.dropped),
              run.all_decided ? "yes" : "no");
  std::printf("coloring: valid=%s max_color=%d leaders=%zu resets=%llu "
              "mean_T=%.0f max_T=%lld\n",
              run.check.valid() ? "yes" : "no", run.max_color,
              run.num_leaders,
              static_cast<unsigned long long>(run.total_resets),
              run.mean_latency(), static_cast<long long>(run.max_latency()));
  return run.check.valid() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.add_string("in", "",
                   "postmortem bundle directory or checkpoint.urnc file");
  flags.add_bool("resume", false,
                 "resume the checkpointed run to completion instead of "
                 "inspecting it (bit-identical to the uninterrupted run)");
  flags.add_int("node", -1, "restrict state dump and timeline to one node");
  flags.add_int("around", -1,
                "restrict the ring timeline to slots within --window of "
                "this slot (-1 = no slot filter)");
  flags.add_int("window", 50, "slot half-width for --around");
  flags.add_int("tail", 30,
                "show only the last N timeline events (0 = all)");
  flags.add_int("max-nodes", 16,
                "cap the per-node state dump (0 = every node)");
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", flags.error().c_str(),
                 flags.usage("urn_postmortem").c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage("urn_postmortem").c_str());
    return 0;
  }
  const std::string in = flags.get_string("in");
  if (in.empty()) {
    std::fprintf(stderr, "error: --in is required (bundle dir or "
                         ".urnc checkpoint)\n");
    return 2;
  }

  std::string bundle_dir;
  std::string ckpt_path = in;
  if (is_directory(in)) {
    bundle_dir = in;
    ckpt_path = in + "/" + urn::obs::postmortem::kCkptFileName;
  }
  const urn::core::LoadedCheckpoint ck =
      urn::core::load_checkpoint(ckpt_path);
  if (!ck.ok) {
    std::fprintf(stderr, "error: %s\n", ck.error.c_str());
    return 2;
  }
  if (flags.get_bool("resume")) return resume(ck);
  return inspect(ck, bundle_dir, ckpt_path, flags.get_int("node"),
                 flags.get_int("around"), flags.get_int("window"),
                 flags.get_int("tail"), flags.get_int("max-nodes"));
}
