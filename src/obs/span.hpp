/// \file span.hpp
/// \brief Wall-clock span timelines: who was doing what, when.
///
/// `ProfileScope` (profile.hpp) answers "how much time in total"; a
/// `SpanSink` answers "when exactly, and on which track" — the data a
/// timeline viewer needs.  Two producers feed it:
///
///  * the radio engine's traced instantiations record one span per
///    runner phase per slot (wake-up processing, protocol step, medium
///    resolution) on the runner track;
///  * `exec::parallel_for_trials` records one span per claimed chunk on
///    its worker's track, so a parallel sweep renders as a per-worker
///    timeline (idle gaps = load imbalance, visible at a glance).
///
/// Spans carry `const char*` names and are appended under a mutex —
/// cheap enough for opt-in capture, and safe from concurrent workers.
/// Timestamps are nanoseconds since the sink's construction (one shared
/// epoch, so tracks align).  `obs::ChromeTraceWriter` (chrome.hpp)
/// exports the collected spans as Chrome trace-event JSON for
/// Perfetto / `chrome://tracing`.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace urn::obs {

/// One completed span on a track.  `name` must have static storage
/// duration (string literals at the instrumentation sites).
struct SpanRecord {
  const char* name = "";
  std::uint32_t track = 0;      ///< worker index / runner track
  std::uint64_t start_ns = 0;   ///< since the sink's epoch
  std::uint64_t dur_ns = 0;
  std::int64_t arg = -1;        ///< optional payload (slot, chunk, …)
};

/// Thread-safe collector of completed spans.
class SpanSink {
 public:
  SpanSink() : epoch_(std::chrono::steady_clock::now()) {}
  SpanSink(const SpanSink&) = delete;
  SpanSink& operator=(const SpanSink&) = delete;

  /// Nanoseconds since this sink's construction.
  [[nodiscard]] std::uint64_t now_ns() const {
    const auto d = std::chrono::steady_clock::now() - epoch_;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
  }

  void record(const char* name, std::uint32_t track, std::uint64_t start_ns,
              std::uint64_t dur_ns, std::int64_t arg = -1) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, track, start_ns, dur_ns, arg});
  }

  /// Attach a display name to a track ("worker 3", "runner").
  void name_track(std::uint32_t track, std::string name) {
    std::lock_guard<std::mutex> lock(mu_);
    track_names_[track] = std::move(name);
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }
  [[nodiscard]] std::vector<SpanRecord> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }
  [[nodiscard]] std::map<std::uint32_t, std::string> track_names() const {
    std::lock_guard<std::mutex> lock(mu_);
    return track_names_;
  }

 private:
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::map<std::uint32_t, std::string> track_names_;
};

}  // namespace urn::obs
