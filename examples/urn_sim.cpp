/// \file urn_sim.cpp
/// \brief Scenario runner: the whole library behind one command line.
///
/// Examples:
///   urn_sim                                     # defaults: 200-node UDG
///   urn_sim --n 400 --side 11 --radius 1.5 --wake uniform --trials 5
///   urn_sim --topology clustered --wake wavefront --seed 3
///   urn_sim --topology obstacles --walls 40 --tdma
///   urn_sim --analytical --n 48 --side 4.5      # the paper's constants

#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiment.hpp"
#include "core/runner.hpp"
#include "core/tdma.hpp"
#include "exec/chunk.hpp"
#include "exec/parallel.hpp"
#include "obs/postmortem.hpp"
#include "obs/telemetry.hpp"
#include "geom/spatial_grid.hpp"
#include "graph/generators.hpp"
#include "graph/independence.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace {

constexpr const char* kTopologies = "udg | grid | clustered | obstacles";
constexpr const char* kWakes =
    "sync | uniform | sequential | poisson | wavefront";

/// True when `value` is one of the names in `choices` ("a | b | c").
bool is_choice(const std::string& value, const std::string& choices) {
  return !value.empty() && value.find_first_of(" |") == std::string::npos &&
         (" " + choices + " ").find(" " + value + " ") != std::string::npos;
}

urn::graph::GeometricGraph build_topology(const urn::CliFlags& flags,
                                          urn::Rng& rng) {
  using namespace urn;
  const auto n = static_cast<std::size_t>(flags.get_int("n"));
  const double side = flags.get_double("side");
  const double radius = flags.get_double("radius");
  const std::string topology = flags.get_string("topology");
  if (topology == "udg") return graph::random_udg(n, side, radius, rng);
  if (topology == "grid") {
    const auto edge = static_cast<std::size_t>(std::sqrt(double(n)));
    return graph::grid_udg(edge, edge, side / double(edge), radius,
                           0.15 * side / double(edge), rng);
  }
  if (topology == "clustered") {
    return graph::clustered_udg(std::max<std::size_t>(1, n / 30), 30, side,
                                radius / 2.0, radius, rng);
  }
  if (topology == "obstacles") {
    const auto walls = static_cast<std::size_t>(flags.get_int("walls"));
    auto segs = graph::random_walls(walls, side, radius, 3 * radius, rng);
    auto big = graph::random_obstacle_big(n, side, radius, std::move(segs),
                                          rng);
    return {std::move(big.graph), std::move(big.positions)};
  }
  URN_CHECK_MSG(false, "unknown --topology " << topology);
  return {};
}

urn::radio::WakeSchedule build_wake(const urn::CliFlags& flags,
                                    const urn::graph::GeometricGraph& net,
                                    const urn::core::Params& params,
                                    urn::Rng& rng) {
  using namespace urn;
  const std::string wake = flags.get_string("wake");
  const std::size_t n = net.graph.num_nodes();
  if (wake == "sync") return radio::WakeSchedule::synchronous(n);
  if (wake == "uniform") {
    return radio::WakeSchedule::uniform(n, 2 * params.threshold(), rng);
  }
  if (wake == "sequential") {
    return radio::WakeSchedule::sequential(n, params.passive_slots(), rng);
  }
  if (wake == "poisson") return radio::WakeSchedule::poisson(n, 50.0, rng);
  if (wake == "wavefront") {
    return radio::WakeSchedule::wavefront(
        net.positions, static_cast<double>(params.threshold()) / 4.0, 200,
        rng);
  }
  URN_CHECK_MSG(false, "unknown --wake " << wake);
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace urn;

  CliFlags flags;
  flags.add_int("n", 200, "number of nodes");
  flags.add_double("side", 10.0, "field side length");
  flags.add_double("radius", 1.5, "transmission radius");
  flags.add_string("topology", "udg", kTopologies);
  flags.add_int("walls", 30, "wall count for --topology obstacles");
  flags.add_string("wake", "uniform", kWakes);
  flags.add_int("trials", 1, "independent trials to run");
  flags.add_int("jobs", 1,
                "worker threads for the trial loop (0 = all hardware "
                "threads); results are bit-identical for every value");
  flags.add_int("seed", 1, "master seed");
  flags.add_bool("analytical", false,
                 "use the paper's analytical constants (slow!)");
  flags.add_double("scale", 1.0, "scale factor on the protocol constants");
  flags.add_bool("tdma", false, "derive and audit a TDMA schedule");
  flags.add_bool("verbose", false, "per-trial details");
  flags.add_string("trace-bin", "",
                   "record trial 0 as a compact binary event log (see "
                   "urn_trace; --export jsonl:PATH converts it)");
  flags.add_int("trace-bin-ring", 0,
                "bound the binary log to the most recent N events "
                "(0 = keep every event)");
  flags.add_string("metrics-out", "",
                   "write trial 0's per-window metrics series as CSV");
  flags.add_int("metrics-window", 16, "metrics window width in slots");
  flags.add_bool("monitor", false,
                 "check the paper's invariants online on every trial; any "
                 "violation fails the run with exit 2");
  flags.add_string("telemetry-out", "",
                   "stream live telemetry snapshots to this JSONL file "
                   "(watch with urn_top --in FILE)");
  flags.add_string("telemetry-prom", "",
                   "rewrite this file as Prometheus text exposition on "
                   "every telemetry snapshot");
  flags.add_int("telemetry-interval", 1000,
                "telemetry snapshot period in milliseconds");
  flags.add_string("postmortem-dir", "",
                   "write per-trial postmortem bundles (checkpoint + "
                   "flight-recorder ring + manifest) under this directory; "
                   "inspect/resume with urn_postmortem");
  flags.add_int("checkpoint-every", 0,
                "checkpoint period in slots for the postmortem bundles "
                "(0 = one snapshot at the start of each trial)");
  flags.add_bool("dump-on-violation", false,
                 "capture a full postmortem bundle (checkpoint + ring + "
                 "monitor report) for a trial whose invariant monitor "
                 "fires; implies --monitor");

  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", flags.error().c_str(),
                 flags.usage("urn_sim").c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage("urn_sim").c_str());
    return 0;
  }
  // Hostile counts and names fail here, before any allocation or run.
  if (!flags.check_int("n", 1,
                       static_cast<std::int64_t>(
                           radio::AlignedMedium::kMaxNodes)) ||
      !flags.check_int("walls", 0) || !flags.check_int("trials", 1) ||
      !flags.check_int("jobs", 0, exec::kMaxJobs) ||
      !flags.check_int("trace-bin-ring", 0) ||
      !flags.check_int("metrics-window", 1) ||
      !flags.check_int("telemetry-interval", 1) ||
      !flags.check_int("checkpoint-every", 0)) {
    std::fprintf(stderr, "error: %s\n", flags.error().c_str());
    return 2;
  }
  for (const auto& [flag, choices] :
       {std::pair{"topology", kTopologies}, std::pair{"wake", kWakes}}) {
    const std::string value = flags.get_string(flag);
    if (!is_choice(value, choices)) {
      std::fprintf(stderr, "error: unknown --%s %s (expected %s)\n", flag,
                   value.c_str(), choices);
      return 2;
    }
  }

  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  Rng rng(seed);
  const graph::GeometricGraph net = build_topology(flags, rng);
  const auto delta = std::max(2u, net.graph.max_closed_degree());
  graph::KappaOptions kopts;
  if (net.graph.num_nodes() > 250) kopts.sample = 64;
  const auto k1 = std::max(2u, graph::kappa1(net.graph, kopts).value);
  const auto k2 = std::max(k1, graph::kappa2(net.graph, kopts).value);
  std::printf("topology %s: n=%zu m=%zu Delta=%u kappa1=%u kappa2=%u\n",
              flags.get_string("topology").c_str(), net.graph.num_nodes(),
              net.graph.num_edges(), delta, k1, k2);

  core::Params params =
      flags.get_bool("analytical")
          ? core::Params::analytical(net.graph.num_nodes(), delta, k1, k2)
          : core::Params::practical(net.graph.num_nodes(), delta, k1, k2);
  params = params.scaled(flags.get_double("scale"));
  std::printf("constants: alpha=%.1f beta=%.1f gamma=%.1f sigma=%.1f "
              "(threshold %lld slots)\n",
              params.alpha, params.beta, params.gamma, params.sigma,
              static_cast<long long>(params.threshold()));

  core::TraceOptions trace;
  trace.events_bin = flags.get_string("trace-bin");
  trace.bin_ring = static_cast<std::size_t>(flags.get_int("trace-bin-ring"));
  trace.metrics = !flags.get_string("metrics-out").empty();
  trace.metrics_window = flags.get_int("metrics-window");
  // Postmortem bundles: each trial writes its own subdirectory
  // (<dir>/trialNNNN) so the parallel trial loop never shares files.
  core::PostmortemOptions postmortem;
  postmortem.dir = flags.get_string("postmortem-dir");
  postmortem.checkpoint_every = flags.get_int("checkpoint-every");
  postmortem.dump_on_violation = flags.get_bool("dump-on-violation");
  if (postmortem.dir.empty() &&
      (postmortem.checkpoint_every > 0 || postmortem.dump_on_violation)) {
    postmortem.dir = "postmortem";
  }
  const bool monitor =
      flags.get_bool("monitor") || postmortem.dump_on_violation;
  const bool tracing = trace.metrics || !trace.events_bin.empty();
  // Reject unwritable destinations up front rather than aborting mid-run.
  for (const std::string& path :
       {trace.events_bin, flags.get_string("metrics-out"),
        flags.get_string("telemetry-out"),
        flags.get_string("telemetry-prom")}) {
    if (path.empty()) continue;
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 2;
    }
    std::fclose(f);
  }
  if (postmortem.enabled() &&
      !obs::postmortem::ensure_dir(postmortem.dir)) {
    std::fprintf(stderr, "error: cannot write %s\n", postmortem.dir.c_str());
    return 2;
  }

  const auto trials = static_cast<std::size_t>(flags.get_int("trials"));
  const auto jobs = static_cast<std::size_t>(flags.get_int("jobs"));
  const bool verbose = flags.get_bool("verbose");

  // Live telemetry: every trial runs with an engine probe feeding the
  // global registry (zero-event NullSink path — see core::TraceOptions),
  // the pool reports per-worker utilization, and a background snapshotter
  // streams the registry to JSONL / Prometheus.  Probes read counts only,
  // so results stay bit-identical to an uninstrumented run.
  obs::telemetry::Registry* telemetry = nullptr;
  std::optional<obs::telemetry::PoolProbe> pool_probe;
  std::optional<obs::telemetry::Snapshotter> snapshotter;
  const std::string telemetry_out = flags.get_string("telemetry-out");
  const std::string telemetry_prom = flags.get_string("telemetry-prom");
  if (!telemetry_out.empty() || !telemetry_prom.empty()) {
    telemetry = &obs::telemetry::Registry::global();
    telemetry->clear();
    pool_probe.emplace(*telemetry, exec::resolve_jobs(jobs));
    obs::telemetry::SnapshotterOptions sopts;
    sopts.jsonl_path = telemetry_out;
    sopts.prom_path = telemetry_prom;
    sopts.interval_ms =
        static_cast<std::uint64_t>(flags.get_int("telemetry-interval"));
    snapshotter.emplace(*telemetry, sopts);
  }

  // The trial loop fans out over the deterministic executor: each trial
  // is a pure function of mix_seed(seed, t), workers own their sinks and
  // RNG streams outright, and per-chunk partials merge in trial order —
  // so every statistic is bit-identical for any --jobs.  Output is
  // collected into the partials and printed in trial order afterwards.
  struct SimPartial {
    std::size_t valid = 0;
    std::uint64_t monitored_events = 0;
    Samples mean_lat, max_lat, colors;
    std::vector<std::string> verbose_lines;
    std::optional<core::RunResult> trial0;  // carries trace artifacts
    std::optional<core::RunResult> last;    // feeds the --tdma audit
    struct Violation {
      std::size_t trial;
      obs::MonitorReport report;
      std::string bundle;  // postmortem bundle dir ("" when not captured)
    };
    std::optional<Violation> violation;
  };
  const SimPartial sim = exec::parallel_for_trials<SimPartial>(
      trials, {jobs, 0, nullptr, pool_probe ? &*pool_probe : nullptr},
      [&](SimPartial& acc, std::size_t t) {
        Rng wrng(mix_seed(seed, 1000 + t));
        const auto schedule = build_wake(flags, net, params, wrng);
        // Trial 0 carries the log/metrics; --monitor, --telemetry-* and
        // the postmortem bundles apply to every trial, and with none of
        // them run_coloring_traced is the untraced run.  Observers and
        // probes never touch the RNG streams, so every trial is
        // bit-identical to what run_coloring would have produced.
        core::TraceOptions topts =
            (tracing && t == 0) ? trace : core::TraceOptions{};
        topts.monitor = monitor;
        topts.telemetry = telemetry;
        if (postmortem.enabled()) {
          topts.postmortem = postmortem;
          topts.postmortem.dir =
              postmortem.dir + "/" + exec::trial_tag(t);
          topts.postmortem.trial = t;
        }
        const auto run = core::run_coloring_traced(
            net.graph, params, schedule, mix_seed(seed, t), topts);
        if (run.monitor.has_value()) {
          acc.monitored_events += run.monitor->events_seen;
          if (!run.monitor->ok() && !acc.violation.has_value()) {
            acc.violation = SimPartial::Violation{t, *run.monitor,
                                                  run.bundle};
          }
        }
        if (run.check.valid()) ++acc.valid;
        acc.mean_lat.add(run.mean_latency());
        acc.max_lat.add(static_cast<double>(run.max_latency()));
        acc.colors.add(static_cast<double>(run.max_color));
        if (verbose) {
          char line[160];
          std::snprintf(line, sizeof(line),
                        "  trial %zu: valid=%d slots=%lld leaders=%zu "
                        "max_color=%d meanT=%.0f",
                        t, run.check.valid() ? 1 : 0,
                        static_cast<long long>(run.medium.slots_run),
                        run.num_leaders, run.max_color, run.mean_latency());
          acc.verbose_lines.emplace_back(line);
        }
        if (t == 0) acc.trial0 = run;
        acc.last = run;
      },
      [](SimPartial& into, SimPartial&& chunk) {
        into.valid += chunk.valid;
        into.monitored_events += chunk.monitored_events;
        into.mean_lat.merge(chunk.mean_lat);
        into.max_lat.merge(chunk.max_lat);
        into.colors.merge(chunk.colors);
        for (std::string& line : chunk.verbose_lines) {
          into.verbose_lines.push_back(std::move(line));
        }
        if (chunk.trial0.has_value()) into.trial0 = std::move(chunk.trial0);
        if (chunk.last.has_value()) into.last = std::move(chunk.last);
        if (chunk.violation.has_value() &&
            (!into.violation.has_value() ||
             chunk.violation->trial < into.violation->trial)) {
          into.violation = std::move(chunk.violation);
        }
      });

  if (snapshotter.has_value()) {
    snapshotter->stop();  // flush a final snapshot before reporting
    if (!telemetry_out.empty()) {
      std::printf("(telemetry: %llu snapshots -> %s; watch live with "
                  "urn_top --in %s)\n",
                  static_cast<unsigned long long>(
                      snapshotter->snapshots_taken()),
                  telemetry_out.c_str(), telemetry_out.c_str());
    }
    if (!telemetry_prom.empty()) {
      std::printf("(telemetry: prometheus exposition -> %s)\n",
                  telemetry_prom.c_str());
    }
  }
  if (sim.violation.has_value()) {
    std::fprintf(stderr, "trial %zu: INVARIANT VIOLATIONS\n",
                 sim.violation->trial);
    obs::print_first_violation(sim.violation->report, stderr);
    obs::print_monitor_report(sim.violation->report, stderr);
    if (!sim.violation->bundle.empty()) {
      std::fprintf(stderr,
                   "postmortem bundle: %s (inspect with urn_postmortem)\n",
                   sim.violation->bundle.c_str());
    }
    return 2;
  }
  if (tracing && sim.trial0.has_value()) {
    const core::RunResult& run = *sim.trial0;
    if (!trace.events_bin.empty()) {
      std::printf("(trace: %llu events -> %s)\n",
                  static_cast<unsigned long long>(run.events_recorded),
                  trace.events_bin.c_str());
    }
    if (run.series.has_value()) {
      const std::string out = flags.get_string("metrics-out");
      if (run.series->write_csv_file(out)) {
        std::printf("(metrics: %zu windows -> %s)\n", run.series->size(),
                    out.c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
      }
    }
  }
  for (const std::string& line : sim.verbose_lines) {
    std::printf("%s\n", line.c_str());
  }
  const std::size_t valid = sim.valid;
  const Samples& mean_lat = sim.mean_lat;
  const Samples& max_lat = sim.max_lat;
  const Samples& colors = sim.colors;
  std::printf("result: valid %zu/%zu | mean T %.0f | max T %.0f | "
              "max color %.0f (bound (k2+1)*Delta=%u)\n",
              valid, trials, mean_lat.mean(), max_lat.max(), colors.max(),
              (k2 + 1) * delta);
  if (monitor) {
    std::printf("monitor: %llu events across %zu trials, 0 violations\n",
                static_cast<unsigned long long>(sim.monitored_events),
                trials);
  }

  if (flags.get_bool("tdma") && sim.last.has_value() &&
      sim.last->check.valid()) {
    const core::RunResult& last = *sim.last;
    const auto tdma = core::derive_tdma(net.graph, last.colors);
    const auto rep = core::analyze_tdma(net.graph, tdma);
    std::printf("tdma: frame=%u direct-free=%s max-nbr-tx=%u "
                "max-2hop-tx=%u clean-rx=%.2f\n",
                tdma.frame, rep.direct_interference_free ? "yes" : "no",
                rep.max_neighbor_transmitters, rep.max_two_hop_transmitters,
                rep.clean_reception_fraction);
  }
  return valid == trials ? 0 : 1;
}
