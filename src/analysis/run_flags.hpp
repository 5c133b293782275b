/// \file run_flags.hpp
/// \brief The observability + execution flags shared by the command-line
///        tools (`urn_sim` and `urn_repro`): one declaration, one set of
///        range checks, one writability pre-check, one postmortem-directory
///        default, one live-telemetry set-up and one report of a recorded
///        run's artifacts.  Each tool adds its own flags to the same
///        `CliFlags` and decides which runs the values apply to.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "obs/telemetry.hpp"
#include "support/cli.hpp"

namespace urn::analysis {

struct RunFlags {
  std::size_t jobs = 1;
  std::string trace_bin;
  std::size_t trace_bin_ring = 0;
  std::string metrics_out;
  std::int64_t metrics_window = 16;
  bool monitor = false;
  std::string telemetry_out;
  std::string telemetry_prom;
  std::int64_t telemetry_interval = 1000;
  std::string postmortem_dir;
  std::int64_t checkpoint_every = 0;
  bool dump_on_violation = false;

  /// Declare the twelve flags on `flags`.
  static void declare(CliFlags& flags);

  /// Range-check the parsed flags and read them.  Nullopt, with
  /// `flags.error()` set, when a count is out of range — the hostile-input
  /// check a tool runs before any work.
  [[nodiscard]] static std::optional<RunFlags> read(CliFlags& flags);

  /// The first destination that cannot be written ("" when all can):
  /// every output path, plus `extra`, is opened for writing and the
  /// postmortem directory created, so a bad path fails up front rather
  /// than after a long run.
  [[nodiscard]] std::string unwritable(
      const std::vector<std::string>& extra = {}) const;

  /// The postmortem options the flags ask for.  Asking for checkpoints or
  /// violation dumps without naming a directory puts the bundle in
  /// ./postmortem.
  [[nodiscard]] core::PostmortemOptions postmortem() const;

  /// Options of the recorded run: log, metrics, monitor, postmortem.
  [[nodiscard]] core::TraceOptions trace_options() const;
};

/// Live telemetry behind --telemetry-*: when a path is set, the global
/// registry is cleared (one process = one time series) and streamed by a
/// snapshotter, with a pool probe sized for --jobs; else all is null.
/// An `on_snapshot` observer (a progress meter) starts the snapshotter on
/// the cleared registry even without a path, but no probe: `registry()`
/// and `pool()` stay null.  `finish()` (also the destructor) writes the
/// final snapshot and prints the "(telemetry: ...)" lines.
class TelemetrySession {
 public:
  using OnSnapshot = std::function<void(const obs::telemetry::Snapshot&)>;
  explicit TelemetrySession(const RunFlags& flags,
                            OnSnapshot on_snapshot = {});
  ~TelemetrySession();
  TelemetrySession(const TelemetrySession&) = delete;
  TelemetrySession& operator=(const TelemetrySession&) = delete;

  [[nodiscard]] obs::telemetry::Registry* registry() const { return reg_; }
  [[nodiscard]] obs::telemetry::PoolProbe* pool() {
    return pool_ ? &*pool_ : nullptr;
  }
  void finish();

 private:
  std::string jsonl_;
  std::string prom_;
  obs::telemetry::Registry* reg_ = nullptr;
  std::optional<obs::telemetry::PoolProbe> pool_;
  std::optional<obs::telemetry::Snapshotter> snapshotter_;
};

/// Print where a recorded run's artifacts went, writing the metrics CSV
/// on the way: "(trace: N events -> PATH; validate with urn_trace --log
/// PATH --kappa2 K)" and "(metrics: N windows of W slots -> PATH)".
void report_artifacts(const RunFlags& flags, const core::RunResult& run,
                      std::uint32_t kappa2);

}  // namespace urn::analysis
