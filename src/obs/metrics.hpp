/// \file metrics.hpp
/// \brief Per-slot (or fixed-width-window) time series derived from the
///        event stream: how a run evolves, not just how it ended.
///
/// `MetricsSink` is an `EventSink` that buckets events into consecutive
/// windows of `window` slots and accumulates per-window counts plus the
/// cumulative awake/decided population.  `finish()` produces a
/// `TimeSeries` covering the whole run (empty windows included, so rows
/// are evenly spaced), exportable as CSV for plotting.
///
/// The trajectory quantities here are exactly what the paper's per-node
/// guarantees talk about: when the awake population ramps up, how long
/// the collision spike after a wake-up burst lasts, when the decided
/// curve saturates.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "obs/sink.hpp"

namespace urn::obs {

/// One row of the time series: counts for slots
/// [start, start + window) and end-of-window populations.
struct MetricsRow {
  Slot start = 0;                      ///< first slot of the window
  std::uint32_t wakes = 0;             ///< nodes waking in this window
  std::uint32_t decisions = 0;         ///< nodes deciding in this window
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t collisions = 0;        ///< listener-slot collision pairs
  std::uint64_t drops = 0;             ///< injected fading losses
  std::uint64_t resets = 0;            ///< Alg. 1 l. 29 counter resets
  std::uint64_t serves = 0;            ///< completed leader windows
  std::uint64_t phase_changes = 0;     ///< Fig. 2 transitions
  std::uint32_t awake_end = 0;         ///< cumulative wakes at window end
  std::uint32_t decided_end = 0;       ///< cumulative decisions at window end

  /// Awake-but-undecided population at window end.
  [[nodiscard]] std::uint32_t active_end() const {
    return awake_end - decided_end;
  }
};

/// The assembled per-window series.
class TimeSeries {
 public:
  TimeSeries() = default;
  TimeSeries(Slot window, std::vector<MetricsRow> rows)
      : window_(window), rows_(std::move(rows)) {}

  [[nodiscard]] Slot window() const { return window_; }
  [[nodiscard]] const std::vector<MetricsRow>& rows() const { return rows_; }
  [[nodiscard]] bool empty() const { return rows_.empty(); }
  [[nodiscard]] std::size_t size() const { return rows_.size(); }

  /// Column header of the CSV form (shared by all exporters).
  [[nodiscard]] static const char* csv_header();

  /// Write `csv_header()` plus one line per row.
  void write_csv(std::ostream& os) const;
  /// Write to a file; returns false if the file could not be opened.
  bool write_csv_file(const std::string& path) const;

  /// Peak per-window collision count (0 for an empty series) — the
  /// headline "when/how hard did the medium congest" number.
  [[nodiscard]] std::uint64_t peak_collisions() const;

 private:
  Slot window_ = 1;
  std::vector<MetricsRow> rows_;
};

/// EventSink that accumulates the series.  Events must arrive in
/// nondecreasing slot order (the engines emit in slot order).
class MetricsSink {
 public:
  static constexpr bool kEnabled = true;

  /// \param window width in slots of each bucket (≥ 1)
  explicit MetricsSink(Slot window = 1);

  void record(const Event& e);
  void flush() {}

  /// Assemble the series for a run that lasted `slots_run` slots,
  /// padding trailing empty windows and filling cumulative populations.
  [[nodiscard]] TimeSeries finish(Slot slots_run) const;

 private:
  MetricsRow& row_for(Slot slot);

  Slot window_;
  std::vector<MetricsRow> rows_;
};

static_assert(EventSink<MetricsSink>);

}  // namespace urn::obs
