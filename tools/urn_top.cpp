/// \file urn_top.cpp
/// \brief Live telemetry viewer: tail the JSONL snapshot stream a
///        `--telemetry-out` run appends to and render a refreshing
///        one-screen status.
///
/// Each line of the stream is one flat-JSON registry snapshot, read with
/// the codec's `json::parse` (see obs/telemetry.hpp and obs/json.hpp).  The
/// viewer re-reads the file every `--interval-ms`, renders the newest
/// snapshot, and derives *rates* (slots/s, transmissions/s, ...) from
/// the last two snapshots' counter deltas over their `telemetry.wall_ms`
/// spacing — so a stalled producer shows rates dropping to zero while
/// totals hold.
///
/// Examples:
///   urn_sim --trials 500 --jobs 0 --telemetry-out /tmp/t.jsonl &
///   urn_top --in /tmp/t.jsonl                 # follow until Ctrl-C
///   urn_top --in /tmp/t.jsonl --once          # render newest and exit
///
/// Exit status: 0 after --once or when the stream ends a follow (the
/// producer's final snapshot renders and the file stops growing for
/// `--exit-after-idle` intervals, 0 = follow forever); 2 on usage / I/O
/// errors.

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "support/cli.hpp"

namespace {

using urn::obs::json::Doc;
using urn::obs::json::Entry;

/// The last two non-empty lines of the stream (older first).
struct Tail {
  std::optional<Doc> prev;
  std::optional<Doc> last;
  std::size_t lines = 0;
};

Tail read_tail(const std::string& path) {
  Tail tail;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return tail;
  std::string line, prev_text, last_text;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    line += buf;
    if (line.empty() || line.back() != '\n') continue;  // partial write
    if (line.find_first_not_of(" \t\r\n") != std::string::npos) {
      prev_text = std::move(last_text);
      last_text = std::move(line);
      ++tail.lines;
    }
    line.clear();
  }
  std::fclose(f);
  if (!prev_text.empty()) {
    Doc doc = urn::obs::json::parse(prev_text);
    if (doc.ok) tail.prev = std::move(doc);
  }
  if (!last_text.empty()) {
    Doc doc = urn::obs::json::parse(last_text);
    if (doc.ok) tail.last = std::move(doc);
  }
  return tail;
}

/// Numeric lookup; nullopt when the key is absent or non-numeric.
std::optional<double> num(const Doc& doc, std::string_view key) {
  const Entry* e = doc.find(key);
  if (e == nullptr || !e->numeric) return std::nullopt;
  return e->value;
}

double value_or(const Doc& doc, std::string_view key, double fallback) {
  return num(doc, key).value_or(fallback);
}

/// Counter rate in units/s between two snapshots (0 when underivable).
double rate(const Tail& tail, std::string_view key) {
  if (!tail.prev.has_value() || !tail.last.has_value()) return 0.0;
  const auto now = num(*tail.last, key);
  const auto before = num(*tail.prev, key);
  const auto wall_now = num(*tail.last, "telemetry.wall_ms");
  const auto wall_before = num(*tail.prev, "telemetry.wall_ms");
  if (!now || !before || !wall_now || !wall_before) return 0.0;
  const double dt_s = (*wall_now - *wall_before) / 1000.0;
  if (dt_s <= 0.0) return 0.0;
  return (*now - *before) / dt_s;
}

/// "12.3k" / "4.56M" style compaction for counts and rates.
std::string human(double v) {
  char buf[32];
  const double a = v < 0 ? -v : v;
  if (a >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fG", v / 1e9);
  } else if (a >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", v / 1e6);
  } else if (a >= 1e4) {
    std::snprintf(buf, sizeof(buf), "%.1fk", v / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  }
  return buf;
}

/// One histogram summary line, if `<name>.count` is present.
void print_histogram(const Doc& doc, const char* label,
                     const std::string& name) {
  const auto count = num(doc, name + ".count");
  if (!count) return;
  std::printf("  %-10s n=%-9s mean %-9s p50 %-9s p95 %-9s max %s\n", label,
              human(*count).c_str(),
              human(value_or(doc, name + ".mean", 0)).c_str(),
              human(value_or(doc, name + ".p50", 0)).c_str(),
              human(value_or(doc, name + ".p95", 0)).c_str(),
              human(value_or(doc, name + ".max", 0)).c_str());
}

void render(const std::string& path, const Tail& tail, bool follow) {
  if (follow) std::printf("\x1b[H\x1b[2J");  // home + clear
  const Doc& doc = *tail.last;
  std::printf("urn_top — %s\n", path.c_str());
  std::printf("  snapshot #%-6.0f uptime %.1fs    (%zu snapshots in stream)\n",
              value_or(doc, "telemetry.seq", 0),
              value_or(doc, "telemetry.uptime_s", 0), tail.lines);

  if (num(doc, "engine.slots")) {
    std::printf("engine\n");
    std::printf("  slots      %-9s (%s/s)      node-slots %-9s (%s/s)\n",
                human(value_or(doc, "engine.slots", 0)).c_str(),
                human(rate(tail, "engine.slots")).c_str(),
                human(value_or(doc, "engine.node_slots", 0)).c_str(),
                human(rate(tail, "engine.node_slots")).c_str());
    std::printf("  runs       %.0f started, %.0f completed    undecided %.0f"
                "    decisions %s\n",
                value_or(doc, "engine.runs", 0),
                value_or(doc, "engine.runs_completed", 0),
                value_or(doc, "engine.undecided", 0),
                human(value_or(doc, "engine.decisions", 0)).c_str());
    std::printf("  medium     tx %-9s dlv %-9s col %-9s drop %-9s\n",
                human(value_or(doc, "engine.transmissions", 0)).c_str(),
                human(value_or(doc, "engine.deliveries", 0)).c_str(),
                human(value_or(doc, "engine.collisions", 0)).c_str(),
                human(value_or(doc, "engine.drops", 0)).c_str());
    std::printf("  rates/s    tx %-9s dlv %-9s col %-9s drop %-9s\n",
                human(rate(tail, "engine.transmissions")).c_str(),
                human(rate(tail, "engine.deliveries")).c_str(),
                human(rate(tail, "engine.collisions")).c_str(),
                human(rate(tail, "engine.drops")).c_str());
  }

  const auto workers = num(doc, "pool.workers");
  if (workers) {
    std::printf("pool       %.0f workers, %s chunks claimed\n", *workers,
                human(value_or(doc, "pool.chunks", 0)).c_str());
    const double busy_total = value_or(doc, "pool.busy.ns", 0);
    const double wait_total = value_or(doc, "pool.wait.ns", 0);
    const double denom = busy_total + wait_total;
    std::printf("  busy %.3fs  wait %.3fs  utilization %.0f%%\n",
                busy_total / 1e9, wait_total / 1e9,
                denom > 0 ? 100.0 * busy_total / denom : 0.0);
    for (std::size_t w = 0; w < static_cast<std::size_t>(*workers); ++w) {
      const std::string stem = "pool.worker" + std::to_string(w);
      const auto busy = num(doc, stem + ".busy.ns");
      if (!busy) continue;
      const double share = busy_total > 0 ? *busy / busy_total : 0.0;
      const int bars = static_cast<int>(share * 40.0 + 0.5);
      std::printf("  w%-2zu %6.3fs %5s chunks |%-40.*s|\n", w, *busy / 1e9,
                  human(value_or(doc, stem + ".chunks", 0)).c_str(), bars,
                  "########################################");
    }
  }

  std::printf("latency\n");
  print_histogram(doc, "decision", "run.decision_latency");
  print_histogram(doc, "chunk-wait", "pool.chunk_wait.ns");

  // Any counters outside the families above (e.g. m2.cells_done) —
  // shown raw so custom instrumentation surfaces without a new viewer.
  bool header = false;
  for (const Entry& e : doc.entries) {
    if (!e.numeric) continue;
    const std::string& k = e.key;
    if (k.rfind("telemetry.", 0) == 0 || k.rfind("engine.", 0) == 0 ||
        k.rfind("pool.", 0) == 0 || k.rfind("run.", 0) == 0) {
      continue;
    }
    if (!header) {
      std::printf("other\n");
      header = true;
    }
    std::printf("  %-32s %s\n", k.c_str(), human(e.value).c_str());
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace urn;

  CliFlags flags;
  flags.add_string("in", "",
                   "telemetry JSONL stream to follow (required; produced "
                   "by any --telemetry-out flag)");
  flags.add_int("interval-ms", 500, "refresh period in milliseconds");
  flags.add_bool("once", false,
                 "render the newest snapshot once and exit (no screen "
                 "clearing; scripting / tests)");
  flags.add_int("exit-after-idle", 0,
                "in follow mode, exit 0 after this many refreshes without "
                "new snapshots (0 = follow until interrupted)");

  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", flags.error().c_str(),
                 flags.usage("urn_top").c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage("urn_top").c_str());
    return 0;
  }
  const std::string path = flags.get_string("in");
  if (path.empty()) {
    std::fprintf(stderr, "error: --in is required\n%s",
                 flags.usage("urn_top").c_str());
    return 2;
  }
  const bool once = flags.get_bool("once");
  const auto interval = std::chrono::milliseconds(
      std::max<std::int64_t>(1, flags.get_int("interval-ms")));
  const auto idle_limit = static_cast<std::size_t>(
      std::max<std::int64_t>(0, flags.get_int("exit-after-idle")));

  std::size_t last_lines = 0;
  std::size_t idle = 0;
  for (;;) {
    const Tail tail = read_tail(path);
    if (!tail.last.has_value()) {
      if (once) {
        std::fprintf(stderr, "error: no parsable snapshot in %s\n",
                     path.c_str());
        return 2;
      }
      // Producer may not have written its first snapshot yet.
      std::printf("\x1b[H\x1b[2Jurn_top — %s\n  (waiting for snapshots)\n",
                  path.c_str());
      std::fflush(stdout);
    } else {
      render(path, tail, !once);
      if (once) return 0;
      if (tail.lines == last_lines) {
        if (idle_limit != 0 && ++idle >= idle_limit) return 0;
      } else {
        idle = 0;
        last_lines = tail.lines;
      }
    }
    std::this_thread::sleep_for(interval);
  }
}
