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
#include "analysis/run_flags.hpp"
#include "core/runner.hpp"
#include "core/tdma.hpp"
#include "exec/chunk.hpp"
#include "exec/parallel.hpp"
#include "geom/spatial_grid.hpp"
#include "graph/generators.hpp"
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
  flags.add_int("seed", 1, "master seed");
  flags.add_bool("analytical", false,
                 "use the paper's analytical constants (slow!)");
  flags.add_double("scale", 1.0, "scale factor on the protocol constants");
  flags.add_bool("tdma", false, "derive and audit a TDMA schedule");
  flags.add_bool("verbose", false, "per-trial details");
  // --jobs, the trial-0 log and metrics (--trace-bin, --metrics-out),
  // --monitor on every trial, live telemetry and per-trial postmortem
  // bundles: the flag set shared with urn_repro.
  analysis::RunFlags::declare(flags);

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
  std::optional<analysis::RunFlags> run_flags;
  if (!flags.check_int("n", 1,
                       static_cast<std::int64_t>(
                           radio::AlignedMedium::kMaxNodes)) ||
      !flags.check_int("walls", 0) || !flags.check_int("trials", 1) ||
      !(run_flags = analysis::RunFlags::read(flags))) {
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
  // κ over every node; a 2-hop neighbourhood past the exact limit makes
  // κ₁/κ₂ greedy lower bounds, marked ">=".
  const core::GraphBounds b = core::measure_bounds(net.graph);
  const char* const eq = b.exact ? "=" : ">=";
  std::printf("topology %s: n=%zu m=%zu Delta=%u kappa1%s%u kappa2%s%u\n",
              flags.get_string("topology").c_str(), net.graph.num_nodes(),
              net.graph.num_edges(), b.delta, eq, b.kappa1, eq, b.kappa2);

  const std::size_t n = net.graph.num_nodes();
  core::Params params =
      flags.get_bool("analytical")
          ? core::Params::analytical(n, b.delta, b.kappa1, b.kappa2)
          : core::Params::practical(n, b.delta, b.kappa1, b.kappa2);
  params = params.scaled(flags.get_double("scale"));
  std::printf("constants: alpha=%.1f beta=%.1f gamma=%.1f sigma=%.1f "
              "(threshold %lld slots)\n",
              params.alpha, params.beta, params.gamma, params.sigma,
              static_cast<long long>(params.threshold()));

  // Postmortem bundles: each trial writes its own subdirectory
  // (<dir>/trialNNNN) so the parallel trial loop never shares files.
  const analysis::RunFlags& rf = *run_flags;
  const core::PostmortemOptions postmortem = rf.postmortem();
  const bool monitor = rf.monitor || postmortem.dump_on_violation;
  const bool tracing = !rf.trace_bin.empty() || !rf.metrics_out.empty();
  // Reject unwritable destinations up front rather than aborting mid-run.
  if (const std::string bad = rf.unwritable(); !bad.empty()) {
    std::fprintf(stderr, "error: cannot write %s\n", bad.c_str());
    return 2;
  }

  const auto trials = static_cast<std::size_t>(flags.get_int("trials"));
  const bool verbose = flags.get_bool("verbose");

  // Live telemetry: every trial runs with an engine probe feeding the
  // global registry (zero-event NullSink path — see core::TraceOptions),
  // the pool reports per-worker utilization, and a background snapshotter
  // streams the registry to JSONL / Prometheus.  Probes read counts only,
  // so results stay bit-identical to an uninstrumented run.
  analysis::TelemetrySession telemetry(rf);

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
      trials, {rf.jobs, 0, nullptr, telemetry.pool()},
      [&](SimPartial& acc, std::size_t t) {
        Rng wrng(mix_seed(seed, 1000 + t));
        const auto schedule = build_wake(flags, net, params, wrng);
        // Trial 0 carries the log/metrics; --monitor, --telemetry-* and
        // the postmortem bundles apply to every trial, and with none of
        // them run_coloring_traced is the untraced run.  Observers and
        // probes never touch the RNG streams, so every trial is
        // bit-identical to what run_coloring would have produced.
        core::TraceOptions topts =
            (tracing && t == 0) ? rf.trace_options() : core::TraceOptions{};
        topts.bin_ring = rf.trace_bin_ring;  // every bundle's ring too
        topts.monitor = monitor;
        topts.telemetry = telemetry.registry();
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

  telemetry.finish();  // flush a final snapshot before reporting
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
    analysis::report_artifacts(rf, *sim.trial0, params.kappa2);
  }
  for (const std::string& line : sim.verbose_lines) {
    std::printf("%s\n", line.c_str());
  }
  const std::size_t valid = sim.valid;
  const Samples& mean_lat = sim.mean_lat;
  const Samples& max_lat = sim.max_lat;
  const Samples& colors = sim.colors;
  std::printf("result: valid %zu/%zu | mean T %.0f | max T %.0f | "
              "max color %.0f (bound Delta(k2+1)+k2=%llu)\n",
              valid, trials, mean_lat.mean(), max_lat.max(), colors.max(),
              static_cast<unsigned long long>(params.color_bound()));
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
