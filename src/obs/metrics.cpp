#include "obs/metrics.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "support/check.hpp"

namespace urn::obs {

MetricsSink::MetricsSink(Slot window) : window_(window) {
  URN_CHECK(window >= 1);
}

MetricsRow& MetricsSink::row_for(Slot slot) {
  URN_CHECK(slot >= 0);
  const auto idx = static_cast<std::size_t>(slot / window_);
  while (rows_.size() <= idx) {
    MetricsRow row;
    row.start = static_cast<Slot>(rows_.size()) * window_;
    rows_.push_back(row);
  }
  return rows_[idx];
}

void MetricsSink::record(const Event& e) {
  MetricsRow& row = row_for(e.slot);
  switch (e.kind) {
    case EventKind::kWake:
      ++row.wakes;
      break;
    case EventKind::kTransmit:
      ++row.transmissions;
      break;
    case EventKind::kDelivery:
      ++row.deliveries;
      break;
    case EventKind::kCollision:
      ++row.collisions;
      break;
    case EventKind::kDrop:
      ++row.drops;
      break;
    case EventKind::kPhase:
      ++row.phase_changes;
      break;
    case EventKind::kReset:
      ++row.resets;
      break;
    case EventKind::kDecision:
      ++row.decisions;
      break;
    case EventKind::kServe:
      ++row.serves;
      break;
  }
}

TimeSeries MetricsSink::finish(Slot slots_run) const {
  std::vector<MetricsRow> rows = rows_;
  // Pad trailing windows so the series spans the whole run.
  if (slots_run > 0) {
    const auto want = static_cast<std::size_t>((slots_run - 1) / window_) + 1;
    while (rows.size() < want) {
      MetricsRow row;
      row.start = static_cast<Slot>(rows.size()) * window_;
      rows.push_back(row);
    }
  }
  std::uint32_t awake = 0;
  std::uint32_t decided = 0;
  for (MetricsRow& row : rows) {
    awake += row.wakes;
    decided += row.decisions;
    row.awake_end = awake;
    row.decided_end = decided;
  }
  return TimeSeries(window_, std::move(rows));
}

const char* TimeSeries::csv_header() {
  return "window_start,wakes,decisions,transmissions,deliveries,collisions,"
         "drops,resets,serves,phase_changes,awake,decided,active";
}

void TimeSeries::write_csv(std::ostream& os) const {
  os << csv_header() << '\n';
  for (const MetricsRow& r : rows_) {
    os << r.start << ',' << r.wakes << ',' << r.decisions << ','
       << r.transmissions << ',' << r.deliveries << ',' << r.collisions
       << ',' << r.drops << ',' << r.resets << ',' << r.serves << ','
       << r.phase_changes << ',' << r.awake_end << ',' << r.decided_end
       << ',' << r.active_end() << '\n';
  }
}

bool TimeSeries::write_csv_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  write_csv(os);
  return static_cast<bool>(os);
}

std::uint64_t TimeSeries::peak_collisions() const {
  std::uint64_t peak = 0;
  for (const MetricsRow& r : rows_) peak = std::max(peak, r.collisions);
  return peak;
}

}  // namespace urn::obs
