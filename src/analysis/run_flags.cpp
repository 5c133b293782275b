#include "analysis/run_flags.hpp"

#include <cstdio>
#include <utility>

#include "exec/chunk.hpp"
#include "obs/postmortem.hpp"

namespace urn::analysis {

void RunFlags::declare(CliFlags& flags) {
  flags.add_int("jobs", 1,
                "worker threads for the trial loops (0 = all hardware "
                "threads); results are bit-identical for every value");
  flags.add_string("trace-bin", "",
                   "record the traced run as a compact binary event log "
                   "(analyze with urn_trace; --export jsonl:PATH converts "
                   "it)");
  flags.add_int("trace-bin-ring", 0,
                "bound the binary log and every postmortem bundle's ring "
                "to the last N events (flight-recorder mode; 0 = keep the "
                "whole log, and 4096 events per bundle ring)");
  flags.add_string("metrics-out", "",
                   "write the traced run's per-window metrics series as CSV");
  flags.add_int("metrics-window", 16, "metrics window width in slots");
  flags.add_bool("monitor", false,
                 "check the paper's invariants online; any violation "
                 "fails the run with exit 2");
  flags.add_string("telemetry-out", "",
                   "stream live telemetry snapshots to this JSONL file "
                   "(watch with urn_top --in FILE)");
  flags.add_string("telemetry-prom", "",
                   "rewrite this file as Prometheus text exposition on "
                   "every telemetry snapshot");
  flags.add_int("telemetry-interval", 1000,
                "telemetry snapshot period in milliseconds");
  flags.add_string("postmortem-dir", "",
                   "write postmortem bundles (checkpoint + flight-recorder "
                   "ring + manifest) under this directory; inspect/resume "
                   "with urn_postmortem");
  flags.add_int("checkpoint-every", 0,
                "checkpoint period in slots for the postmortem bundles "
                "(0 = one snapshot at the start of the run)");
  flags.add_bool("dump-on-violation", false,
                 "capture a full postmortem bundle (checkpoint + ring + "
                 "monitor report) when the invariant monitor fires; "
                 "implies --monitor");
}

std::optional<RunFlags> RunFlags::read(CliFlags& flags) {
  if (!flags.check_int("jobs", 0, exec::kMaxJobs) ||
      !flags.check_int("trace-bin-ring", 0) ||
      !flags.check_int("metrics-window", 1) ||
      !flags.check_int("telemetry-interval", 1) ||
      !flags.check_int("checkpoint-every", 0)) {
    return std::nullopt;
  }
  RunFlags f;
  f.jobs = static_cast<std::size_t>(flags.get_int("jobs"));
  f.trace_bin = flags.get_string("trace-bin");
  f.trace_bin_ring =
      static_cast<std::size_t>(flags.get_int("trace-bin-ring"));
  f.metrics_out = flags.get_string("metrics-out");
  f.metrics_window = flags.get_int("metrics-window");
  f.monitor = flags.get_bool("monitor");
  f.telemetry_out = flags.get_string("telemetry-out");
  f.telemetry_prom = flags.get_string("telemetry-prom");
  f.telemetry_interval = flags.get_int("telemetry-interval");
  f.postmortem_dir = flags.get_string("postmortem-dir");
  f.checkpoint_every = flags.get_int("checkpoint-every");
  f.dump_on_violation = flags.get_bool("dump-on-violation");
  return f;
}

std::string RunFlags::unwritable(const std::vector<std::string>& extra) const {
  std::vector<std::string> paths = {trace_bin, metrics_out, telemetry_out,
                                    telemetry_prom};
  paths.insert(paths.end(), extra.begin(), extra.end());
  for (const std::string& path : paths) {
    if (path.empty()) continue;
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return path;
    std::fclose(f);
  }
  const core::PostmortemOptions pm = postmortem();
  if (pm.enabled() && !obs::postmortem::ensure_dir(pm.dir)) return pm.dir;
  return "";
}

core::PostmortemOptions RunFlags::postmortem() const {
  core::PostmortemOptions po;
  po.dir = postmortem_dir;
  if (po.dir.empty() && (checkpoint_every > 0 || dump_on_violation)) {
    po.dir = "postmortem";
  }
  po.checkpoint_every = checkpoint_every;
  po.dump_on_violation = dump_on_violation;
  return po;
}

core::TraceOptions RunFlags::trace_options() const {
  core::TraceOptions opts;
  opts.metrics = !metrics_out.empty();
  opts.metrics_window = metrics_window;
  opts.events_bin = trace_bin;
  opts.bin_ring = trace_bin_ring;
  opts.monitor = monitor;
  opts.postmortem = postmortem();
  return opts;
}

TelemetrySession::TelemetrySession(const RunFlags& flags,
                                   OnSnapshot on_snapshot)
    : jsonl_(flags.telemetry_out), prom_(flags.telemetry_prom) {
  const bool exporting = !jsonl_.empty() || !prom_.empty();
  if (!exporting && !on_snapshot) return;
  obs::telemetry::Registry& reg = obs::telemetry::Registry::global();
  reg.clear();
  if (exporting) {
    reg_ = &reg;
    pool_.emplace(reg, exec::resolve_jobs(flags.jobs));
  }
  obs::telemetry::SnapshotterOptions sopts;
  sopts.jsonl_path = jsonl_;
  sopts.prom_path = prom_;
  sopts.interval_ms = static_cast<std::uint64_t>(flags.telemetry_interval);
  sopts.on_snapshot = std::move(on_snapshot);
  snapshotter_.emplace(reg, std::move(sopts));
}

TelemetrySession::~TelemetrySession() { finish(); }

void TelemetrySession::finish() {
  if (!snapshotter_.has_value()) return;
  snapshotter_->stop();  // writes the final snapshot
  if (!jsonl_.empty()) {
    std::printf("(telemetry: %llu snapshots -> %s; watch live with "
                "urn_top --in %s)\n",
                static_cast<unsigned long long>(
                    snapshotter_->snapshots_taken()),
                jsonl_.c_str(), jsonl_.c_str());
  }
  if (!prom_.empty()) {
    std::printf("(telemetry: prometheus exposition -> %s)\n", prom_.c_str());
  }
  snapshotter_.reset();
}

void report_artifacts(const RunFlags& flags, const core::RunResult& run,
                      std::uint32_t kappa2) {
  if (!flags.trace_bin.empty()) {
    std::printf("(trace: %llu events -> %s; validate with "
                "urn_trace --log %s --kappa2 %u)\n",
                static_cast<unsigned long long>(run.events_recorded),
                flags.trace_bin.c_str(), flags.trace_bin.c_str(), kappa2);
  }
  if (!flags.metrics_out.empty() && run.series.has_value()) {
    if (run.series->write_csv_file(flags.metrics_out)) {
      std::printf("(metrics: %zu windows of %lld slots -> %s)\n",
                  run.series->size(),
                  static_cast<long long>(run.series->window()),
                  flags.metrics_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", flags.metrics_out.c_str());
    }
  }
}

}  // namespace urn::analysis
