/// \file sink.hpp
/// \brief Event sinks: where the engines send their trace events.
///
/// The radio engines are templates over a sink type so that the default,
/// `NullSink`, compiles to *nothing* — every emission site is guarded by
/// `if constexpr (S::kEnabled)`, so the hot loop of `Engine<P, NullSink>`
/// is bit- and instruction-identical to an engine with no tracing at all
/// (benchmarked in m1_micro).  A traced run hands the engine one sink, its
/// observer (core/runner.cpp), which fans events out to `MetricsSink`,
/// `BinSink` (the one on-line log format), `InvariantMonitorSink` and a
/// `MemorySink`; a sink that also defines `on_tick(engine, tick)` is
/// called at the top of every run-loop iteration (postmortem checkpoints).

#pragma once

#include <concepts>
#include <vector>

#include "obs/event.hpp"

namespace urn::obs {

/// What the engines require of a sink.  `kEnabled` is the compile-time
/// switch: when false, emission sites are discarded entirely.
template <typename S>
concept EventSink = requires(S s, const Event& e) {
  { S::kEnabled } -> std::convertible_to<bool>;
  { s.record(e) };
  { s.flush() };
};

/// The zero-overhead default: nothing is recorded, nothing is compiled.
struct NullSink {
  static constexpr bool kEnabled = false;
  void record(const Event&) {}
  void flush() {}
};

/// Unbounded in-memory event buffer.
class MemorySink {
 public:
  static constexpr bool kEnabled = true;

  void record(const Event& e) { events_.push_back(e); }
  void flush() {}

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  void clear() { events_.clear(); }

 private:
  std::vector<Event> events_;
};

static_assert(EventSink<NullSink>);
static_assert(EventSink<MemorySink>);

}  // namespace urn::obs
