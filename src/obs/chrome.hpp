/// \file chrome.hpp
/// \brief Chrome trace-event JSON export: render recorded traces as
///        timelines loadable in Perfetto (ui.perfetto.dev) or
///        `chrome://tracing`.
///
/// Two sources map onto two process groups of the same timeline:
///
///  * **Slot events** (`obs::Event`, from JSONL or binary captures) —
///    pid 0, one *thread track per node*.  Fig. 2 phase residencies
///    (A_i / R / C_i) become duration slices (`ph:"X"`), and the medium
///    / protocol point events (wake, tx, rx, collision, drop, reset,
///    decision, serve) become thread-scoped instants (`ph:"i"`).  The
///    timebase is *slots*, rendered as 1 slot = 1 µs so Perfetto's
///    zoom and ruler behave.
///
///  * **Spans** (`obs::SpanRecord`, live wall-clock capture) — pid 1,
///    one thread track per worker / runner, real microsecond timebase.
///
/// Every emitted record carries the four keys timeline tooling requires
/// (`ph`, `ts`, `pid`, `tid`) plus `name`/`cat`; process and thread
/// names ride on `"M"` metadata records.  The output is a single JSON
/// object `{"traceEvents":[...]}` — the storage format Perfetto and
/// `chrome://tracing` both accept.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/event.hpp"
#include "obs/span.hpp"

namespace urn::obs {

/// Streaming writer for the Chrome trace-event JSON format.  Call any
/// mix of `add_events` / `add_spans`, then `finish()` (also run by the
/// destructor).  Not thread-safe; drive it from one thread.
class ChromeTraceWriter {
 public:
  /// Process ids of the two track groups.
  static constexpr int kSlotPid = 0;   ///< slot events, node tracks
  static constexpr int kSpanPid = 1;   ///< wall-clock spans, worker tracks

  explicit ChromeTraceWriter(std::ostream& os);
  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;
  ~ChromeTraceWriter();

  /// Add one run's slot events as node tracks (see file comment).
  /// Returns the number of trace records emitted.
  std::size_t add_events(const std::vector<Event>& events);

  /// Add wall-clock spans as worker tracks; `track_names` labels them.
  std::size_t add_spans(
      const std::vector<SpanRecord>& spans,
      const std::map<std::uint32_t, std::string>& track_names);

  /// Name a process or a thread track (`"M"` metadata records).
  void name_process(int pid, std::string_view name);
  void name_thread(int pid, std::uint64_t tid, std::string_view name);
  /// One complete (`"X"`) slice on the slot timebase.
  void slice(std::string_view name, const char* cat, std::int64_t ts,
             std::int64_t dur, int pid, std::uint64_t tid);

  /// Close the traceEvents array and the outer object.
  void finish();

 private:
  /// Emit one record object given its body (everything between the
  /// braces); handles the comma discipline.
  void emit(const std::string& body);

  std::ostream& os_;
  bool first_ = true;
  bool finished_ = false;
  std::size_t emitted_ = 0;
};

/// Convenience wrapper: write `{"traceEvents":[...]}` for `events` to
/// `path`.  Returns false when the file cannot be written.
[[nodiscard]] bool write_chrome_trace_file(const std::string& path,
                                           const std::vector<Event>& events);

/// Convenience wrapper for a span capture.
[[nodiscard]] bool write_chrome_spans_file(const std::string& path,
                                           const SpanSink& spans);

}  // namespace urn::obs
