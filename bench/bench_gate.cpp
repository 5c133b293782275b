/// Gate benchmark — the small fixed-seed scenario behind the
/// `bench_regression` CTest target.
///
/// Unlike E1–E15 (minutes of wall clock), this runs in a few seconds:
/// a 96-node random UDG, a handful of monitored coloring trials plus a
/// handful of leader-election trials, every seed fixed.  It emits
/// `BENCH_gate_coloring.json` and `BENCH_gate_leader.json` (with full
/// `ledger.*` percentile distributions) into `URN_BENCH_JSON`;
/// `urn_bench_diff` then compares them against `bench/baseline/`.  Runs
/// are bit-reproducible, so any drift in these numbers is a real
/// behavioral change — refresh the baselines deliberately (see
/// EXPERIMENTS.md) when the change is intended.
///
/// Exit status: 0 on success, 2 when any monitored trial violates a
/// paper invariant (via run_traced) or a run goes invalid.

#include "bench_util.hpp"

int urn::bench::bench_gate(const Args& args) {
  banner("GATE", "fixed-seed regression scenario (see urn_bench_diff)");

  const std::size_t n = 96;
  Rng rng(0xCA7E);
  const auto net = graph::random_udg(n, 6.5, 1.5, rng);
  const core::Params params = sweep_params(net.graph);
  std::printf("deployment: n=%zu Delta=%u k1=%u k2=%u\n", n, params.delta,
              params.kappa1, params.kappa2);

  // ---- monitored coloring trials -----------------------------------------
  // The per-trial seeds predate the executor; the loop fans out over
  // exec::map_trials with the *same* seed derivation, so the committed
  // bench/baseline/ numbers are reproduced bit-for-bit for any --jobs.
  // Monitor sinks are constructed per trial (worker-local); the first
  // violation is reported with its originating trial index.
  const std::size_t trials = 5;
  BenchSummary coloring("gate_coloring");
  coloring.set("n", static_cast<std::uint64_t>(n));
  coloring.set("delta", params.delta);
  coloring.set("kappa2", params.kappa2);
  coloring.set("jobs", static_cast<std::uint64_t>(args.resolved_jobs()));
  core::TraceOptions monitored;
  monitored.monitor = true;
  // --telemetry-* runs every trial with an engine probe and the pool
  // reporting utilization; results stay bit-identical (probes read
  // counts only) and the differ skips `telemetry.*` keys, so this can
  // never perturb the committed baselines.
  monitored.telemetry = args.telemetry;
  const auto runs =
      exec::map_trials(trials, args.executor(), [&](std::size_t t) {
        Rng wrng(mix_seed(0xCA7EF, t));
        const auto ws =
            radio::WakeSchedule::uniform(n, 2 * params.threshold(), wrng);
        return core::run_coloring_traced(net.graph, params, ws,
                                         mix_seed(0xCA7EA, t), monitored);
      });
  std::size_t valid = 0;
  Ledger ledger;
  for (std::size_t t = 0; t < trials; ++t) {
    const core::RunResult& run = runs[t];
    if (run.monitor.has_value() && !run.monitor->ok()) {
      std::fprintf(stderr, "gate trial %zu: INVARIANT VIOLATIONS\n", t);
      obs::print_monitor_report(*run.monitor, stderr);
      return 2;
    }
    if (run.check.valid()) ++valid;
    ledger_record(ledger, run);
  }
  coloring.set("trials", static_cast<std::uint64_t>(trials));
  coloring.set("valid", static_cast<std::uint64_t>(valid));
  ledger_emit(coloring, ledger);
  // Snapshot the profile counters *before* the leader trials and the
  // optional representative run below, so `profile.*` reflects exactly
  // the monitored coloring trials; the summary is emitted at the end,
  // once the representative run has contributed its `explain.*` keys.
  coloring.add_profile();
  std::printf("coloring: %zu/%zu valid, 0 invariant violations\n", valid,
              trials);

  // ---- leader-election trials --------------------------------------------
  // Unprobed: the one telemetry registry then holds the coloring trials
  // alone, so `run.decision_latency` is not a mix of decision and cover
  // latencies.
  BenchSummary leader("gate_leader");
  leader.set("n", static_cast<std::uint64_t>(n));
  leader.set("jobs", static_cast<std::uint64_t>(args.resolved_jobs()));
  const auto elections =
      exec::map_trials(trials, args.executor(), [&](std::size_t t) {
        Rng wrng(mix_seed(0xCA7EB, t));
        const auto ws =
            radio::WakeSchedule::uniform(n, 2 * params.threshold(), wrng);
        return core::run_leader_election(net.graph, params, ws,
                                         mix_seed(0xCA7EC, t));
      });
  std::size_t covered = 0;
  Ledger leader_ledger;
  for (const core::LeaderElectionResult& run : elections) {
    if (run.all_covered) ++covered;
    leader_ledger["leaders"].add(static_cast<double>(run.leaders.size()));
    double max_cover = 0.0;
    for (radio::Slot s : run.cover_latency) {
      max_cover = std::max(max_cover, static_cast<double>(s));
    }
    leader_ledger["cover_latency.max"].add(max_cover);
    leader_ledger["slots.run"].add(static_cast<double>(run.medium.slots_run));
    leader_ledger["collisions.total"].add(
        static_cast<double>(run.medium.collisions));
  }
  leader.set("trials", static_cast<std::uint64_t>(trials));
  leader.set("covered", static_cast<std::uint64_t>(covered));
  ledger_emit(leader, leader_ledger);
  leader.add_profile();
  leader.emit();
  std::printf("leader election: %zu/%zu fully covered\n", covered, trials);

  // One representative traced run (trial 0's exact seeds) for
  // --trace-bin / --metrics-out / --monitor experimentation on the gate
  // scenario; with --explain its in-memory capture is attributed to
  // causes and lands as `explain.*` keys of BENCH_gate_coloring.json.
  if (args.enabled()) {
    Rng wrng(mix_seed(0xCA7EF, 0));
    const auto ws =
        radio::WakeSchedule::uniform(n, 2 * params.threshold(), wrng);
    (void)run_traced(args, net.graph, params, ws,
                     mix_seed(0xCA7EA, 0));
    explain_emit(coloring, args, params);
  }
  coloring.emit();
  return valid == trials ? 0 : 2;
}
