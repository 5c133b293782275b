#include "obs/chrome.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "obs/json.hpp"

namespace urn::obs {

namespace {

/// Display name of the Fig. 2 state a phase event enters.
std::string phase_state_name(const Event& e) {
  if (e.phase == static_cast<std::uint8_t>(PhaseCode::kRequest)) return "R";
  char buf[24];
  const char head =
      e.phase == static_cast<std::uint8_t>(PhaseCode::kDecided) ? 'C' : 'A';
  std::snprintf(buf, sizeof(buf), "%c%d", head, e.color);
  return buf;
}

/// Microseconds with sub-µs precision for nanosecond span timestamps.
void append_us(std::string& out, std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  out.append(buf);
}

}  // namespace

ChromeTraceWriter::ChromeTraceWriter(std::ostream& os) : os_(os) {
  os_ << "{\"traceEvents\":[\n";
}

ChromeTraceWriter::~ChromeTraceWriter() { finish(); }

void ChromeTraceWriter::finish() {
  if (finished_) return;
  finished_ = true;
  os_ << "\n]}\n";
}

void ChromeTraceWriter::emit(const std::string& body) {
  if (!first_) os_ << ",\n";
  first_ = false;
  os_ << '{' << body << '}';
  ++emitted_;
}

void ChromeTraceWriter::name_process(int pid, std::string_view name) {
  std::string body = "\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":";
  json::append_int(body, pid);
  body.append(",\"tid\":0,\"args\":{\"name\":");
  json::append_quoted(body, name);
  body.push_back('}');
  emit(body);
}

void ChromeTraceWriter::name_thread(int pid, std::uint64_t tid,
                                    std::string_view name) {
  std::string body = "\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":";
  json::append_int(body, pid);
  body.append(",\"tid\":");
  json::append_uint(body, tid);
  body.append(",\"args\":{\"name\":");
  json::append_quoted(body, name);
  body.push_back('}');
  emit(body);
}

void ChromeTraceWriter::slice(std::string_view name, const char* cat,
                              std::int64_t ts, std::int64_t dur, int pid,
                              std::uint64_t tid) {
  std::string body = "\"name\":";
  json::append_quoted(body, name);
  body.append(",\"cat\":");
  json::append_quoted(body, cat);
  body.append(",\"ph\":\"X\",\"ts\":");
  json::append_int(body, ts);
  body.append(",\"dur\":");
  json::append_int(body, dur);
  body.append(",\"pid\":");
  json::append_int(body, pid);
  body.append(",\"tid\":");
  json::append_uint(body, tid);
  emit(body);
}

std::size_t ChromeTraceWriter::add_events(const std::vector<Event>& events) {
  const std::size_t before = emitted_;
  if (events.empty()) return 0;
  name_process(kSlotPid, "slots (one track per node)");

  Slot last_slot = 0;
  for (const Event& e : events) last_slot = std::max(last_slot, e.slot);

  // Track the open Fig. 2 residency per node so each phase event closes
  // the previous slice.  Nodes are named lazily on first sighting.
  struct OpenPhase {
    std::string name;
    Slot since = 0;
  };
  std::map<NodeId, OpenPhase> open;
  std::map<NodeId, bool> seen;

  auto ensure_named = [&](NodeId v) {
    bool& s = seen[v];
    if (!s) {
      s = true;
      name_thread(kSlotPid, v, "node " + std::to_string(v));
    }
  };
  auto close_slice = [&](NodeId v, const OpenPhase& p, Slot end) {
    slice(p.name, "phase", p.since, std::max<Slot>(end - p.since, 0),
          kSlotPid, v);
  };

  for (const Event& e : events) {
    ensure_named(e.node);
    if (e.kind == EventKind::kPhase) {
      auto it = open.find(e.node);
      if (it != open.end()) {
        close_slice(e.node, it->second, e.slot);
        open.erase(it);
      }
      open[e.node] = {phase_state_name(e), e.slot};
      continue;
    }
    // Point events: thread-scoped instants at their slot.
    std::string body = "\"name\":\"";
    body.append(kind_name(e.kind));
    body.append("\",\"cat\":\"");
    body.append(e.kind == EventKind::kTransmit ||
                        e.kind == EventKind::kDelivery ||
                        e.kind == EventKind::kCollision ||
                        e.kind == EventKind::kDrop
                    ? "medium"
                    : "protocol");
    body.append("\",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
    json::append_int(body, e.slot);
    body.append(",\"pid\":");
    json::append_int(body, kSlotPid);
    body.append(",\"tid\":");
    json::append_int(body, e.node);
    body.append(",\"args\":{");
    bool first_arg = true;
    auto arg = [&](const char* key, std::int64_t v) {
      if (!first_arg) body.push_back(',');
      first_arg = false;
      json::append_key(body, key);
      json::append_int(body, v);
    };
    if (e.peer != kNoNode) arg("peer", e.peer);
    if (e.color >= 0) arg("color", e.color);
    if (e.kind == EventKind::kTransmit || e.kind == EventKind::kReset ||
        e.kind == EventKind::kDecision || e.kind == EventKind::kServe) {
      arg("value", e.value);
    }
    body.append("}");
    emit(body);
  }

  // Close the still-open residencies (C_i is terminal: extend to the
  // last recorded slot so decided nodes stay visible).
  for (const auto& [v, p] : open) close_slice(v, p, last_slot + 1);
  return emitted_ - before;
}

std::size_t ChromeTraceWriter::add_spans(
    const std::vector<SpanRecord>& spans,
    const std::map<std::uint32_t, std::string>& track_names) {
  const std::size_t before = emitted_;
  if (spans.empty()) return 0;
  name_process(kSpanPid, "wall clock (one track per worker)");
  for (const auto& [track, name] : track_names) {
    name_thread(kSpanPid, track, name);
  }
  for (const SpanRecord& s : spans) {
    std::string body = "\"name\":";
    json::append_quoted(body, s.name);
    body.append(",\"cat\":\"span\",\"ph\":\"X\",\"ts\":");
    append_us(body, s.start_ns);
    body.append(",\"dur\":");
    append_us(body, s.dur_ns);
    body.append(",\"pid\":");
    json::append_int(body, kSpanPid);
    body.append(",\"tid\":");
    json::append_int(body, s.track);
    if (s.arg >= 0) {
      body.append(",\"args\":{\"arg\":");
      json::append_int(body, s.arg);
      body.append("}");
    }
    emit(body);
  }
  return emitted_ - before;
}

bool write_chrome_trace_file(const std::string& path,
                             const std::vector<Event>& events) {
  std::ofstream os(path);
  if (!os) return false;
  ChromeTraceWriter writer(os);
  writer.add_events(events);
  writer.finish();
  return static_cast<bool>(os);
}

bool write_chrome_spans_file(const std::string& path, const SpanSink& spans) {
  std::ofstream os(path);
  if (!os) return false;
  ChromeTraceWriter writer(os);
  writer.add_spans(spans.snapshot(), spans.track_names());
  writer.finish();
  return static_cast<bool>(os);
}

}  // namespace urn::obs
