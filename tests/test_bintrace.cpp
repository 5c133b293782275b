// Tests for the compact binary trace pipeline: the BinSink record format
// and its reader, ring ("flight recorder") mode, format auto-detection,
// monitor replay from binary captures, wall-clock span timelines, and the
// Chrome trace-event export.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "core/protocol.hpp"
#include "core/runner.hpp"
#include "exec/parallel.hpp"
#include "graph/generators.hpp"
#include "obs/bintrace.hpp"
#include "obs/chrome.hpp"
#include "obs/event.hpp"
#include "obs/monitor.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "radio/engine.hpp"
#include "support/rng.hpp"

namespace urn::obs {
namespace {

// ------------------------- shared run machinery ---------------------------

/// Run a real protocol execution with `sink` attached; the graph,
/// schedule and all RNG streams are pure functions of `seed`, so two
/// calls with the same seed see the identical event stream.
template <typename S>
radio::RunStats run_with_sink(std::uint64_t seed, std::size_t n, S* sink,
                              core::Params* params_out = nullptr) {
  Rng rng(seed);
  auto net = graph::random_udg(n, 5.5, 1.4, rng);
  const graph::Graph g = std::move(net.graph);
  const auto delta = std::max(2u, g.max_closed_degree());
  const auto params = core::Params::practical(g.num_nodes(), delta, 5, 12);
  if (params_out != nullptr) *params_out = params;

  std::vector<core::ColoringNode> nodes;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    nodes.emplace_back(&params, v);
  }
  Rng wrng(mix_seed(seed, 5));
  radio::Engine<core::ColoringNode, S> engine(
      g, radio::WakeSchedule::uniform(g.num_nodes(), 400, wrng),
      std::move(nodes), seed, {}, sink);
  return engine.run(core::default_slot_budget(params, engine.schedule()));
}

/// Every kind with extreme field values (the binary record must carry
/// the full domain of each field, not just what real runs produce).
std::vector<Event> extreme_events() {
  constexpr Slot kSlotMax = std::numeric_limits<Slot>::max();
  constexpr Slot kSlotMin = std::numeric_limits<Slot>::min();
  constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();
  constexpr std::int32_t kI32Max = std::numeric_limits<std::int32_t>::max();
  constexpr std::int32_t kI32Min = std::numeric_limits<std::int32_t>::min();
  constexpr NodeId kNodeMax = kNoNode;  // UINT32_MAX
  return {
      Event::wake(kSlotMax, kNodeMax),
      Event::wake(kSlotMin, 0),
      Event::transmit(kSlotMax, kNodeMax,
                      static_cast<std::uint8_t>(MsgCode::kCompete), kI32Max,
                      kI64Max),
      Event::transmit(kSlotMin, 0,
                      static_cast<std::uint8_t>(MsgCode::kRequest), kI32Min,
                      kI64Min),
      Event::delivery(0, kNodeMax, kNodeMax - 1,
                      static_cast<std::uint8_t>(MsgCode::kAssign), kI32Min),
      Event::collision(kSlotMax, kNodeMax),
      Event::drop(-1, kNodeMax, 0,
                  static_cast<std::uint8_t>(MsgCode::kDecided)),
      Event::phase_change(kSlotMax, kNodeMax,
                          static_cast<std::uint8_t>(PhaseCode::kDecided),
                          kI32Max),
      Event::reset(kSlotMin, kNodeMax, kI32Min, kI64Min),
      Event::decision(kSlotMax, kNodeMax, kI32Max, kI64Max),
      Event::serve(kSlotMin, kNodeMax, kNodeMax, kI64Min),
  };
}

// ----------------------------- record codec -------------------------------

TEST(BinRecord, RoundTripsEveryKindWithExtremeValues) {
  for (const Event& e : extreme_events()) {
    std::string buf;
    append_bin(buf, e);
    ASSERT_EQ(buf.size(), kBinRecordSize);
    Event back;
    ASSERT_TRUE(parse_bin_record(
        reinterpret_cast<const unsigned char*>(buf.data()), back));
    EXPECT_EQ(back, e) << kind_name(e.kind);
  }
}

TEST(BinRecord, RejectsOutOfRangeKind) {
  std::string buf;
  append_bin(buf, Event::wake(1, 2));
  buf[28] = static_cast<char>(kNumEventKinds);  // first invalid kind byte
  Event back;
  EXPECT_FALSE(parse_bin_record(
      reinterpret_cast<const unsigned char*>(buf.data()), back));
}

// ----------------------------- BinSink file -------------------------------

TEST(BinSink, RoundTripMatchesMemorySinkCaptureOfSameRun) {
  const std::string path = ::testing::TempDir() + "bintrace_roundtrip.bin";
  MemorySink memory;
  const auto mem_stats = run_with_sink(/*seed=*/71, 48, &memory);
  ASSERT_TRUE(mem_stats.all_decided);
  ASSERT_GT(memory.size(), 0u);

  {
    BinSink bin(path);
    ASSERT_TRUE(bin.ok());
    const auto bin_stats = run_with_sink(/*seed=*/71, 48, &bin);
    EXPECT_EQ(bin_stats.slots_run, mem_stats.slots_run);
    EXPECT_EQ(bin.written(), memory.size());
    EXPECT_EQ(bin.retained(), memory.size());
  }

  const ParsedTraceFile parsed = read_trace_file(path);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_FALSE(parsed.ring);
  EXPECT_EQ(parsed.dropped, 0u);
  EXPECT_EQ(parsed.bad, 0u);
  ASSERT_EQ(parsed.events.size(), memory.size());
  for (std::size_t i = 0; i < parsed.events.size(); ++i) {
    ASSERT_EQ(parsed.events[i], memory.events()[i]) << "event " << i;
  }
  std::remove(path.c_str());
}

TEST(BinSink, StepDrivenEngineFlushMakesEventsReadable) {
  // step()-driven users never pass through run()'s automatic flush;
  // Engine::flush() must make everything captured so far readable while
  // the engine (and sink) stay live for further stepping.
  const std::string path = ::testing::TempDir() + "bintrace_stepflush.bin";
  Rng rng(91);
  auto net = graph::random_udg(48, 5.5, 1.4, rng);
  const graph::Graph g = std::move(net.graph);
  const auto delta = std::max(2u, g.max_closed_degree());
  const auto params = core::Params::practical(g.num_nodes(), delta, 5, 12);
  std::vector<core::ColoringNode> nodes;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    nodes.emplace_back(&params, v);
  }
  BinSink sink(path);
  ASSERT_TRUE(sink.ok());
  radio::Engine<core::ColoringNode, BinSink> engine(
      g, radio::WakeSchedule::synchronous(g.num_nodes()), std::move(nodes),
      91, {}, &sink);
  for (int s = 0; s < 200; ++s) engine.step();
  engine.flush();

  const ParsedTraceFile parsed = read_trace_file(path);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.events.size(), sink.written());
  ASSERT_GT(parsed.events.size(), 0u);
  std::remove(path.c_str());
}

TEST(BinSink, SyntheticExtremesSurviveTheFile) {
  const std::string path = ::testing::TempDir() + "bintrace_extremes.bin";
  const std::vector<Event> events = extreme_events();
  {
    BinSink sink(path);
    ASSERT_TRUE(sink.ok());
    for (const Event& e : events) sink.record(e);
  }
  const ParsedTraceFile parsed = read_trace_file(path);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ASSERT_EQ(parsed.events.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed.events[i], events[i]) << "event " << i;
  }
  std::remove(path.c_str());
}

TEST(BinSink, RingModeRetainsExactlyTheLastNEvents) {
  const std::string path = ::testing::TempDir() + "bintrace_ring.bin";
  constexpr std::size_t kCap = 64;
  constexpr Slot kTotal = 1000;
  {
    BinSink sink(path, kCap);
    ASSERT_TRUE(sink.ok());
    EXPECT_TRUE(sink.ring_mode());
    for (Slot s = 0; s < kTotal; ++s) {
      sink.record(Event::collision(s, static_cast<NodeId>(s & 7)));
    }
    EXPECT_EQ(sink.written(), static_cast<std::uint64_t>(kTotal));
    EXPECT_EQ(sink.retained(), kCap);
  }
  const ParsedTraceFile parsed = read_trace_file(path);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_TRUE(parsed.ring);
  EXPECT_EQ(parsed.dropped, static_cast<std::uint64_t>(kTotal) - kCap);
  ASSERT_EQ(parsed.events.size(), kCap);
  for (std::size_t i = 0; i < kCap; ++i) {
    EXPECT_EQ(parsed.events[i].slot,
              kTotal - static_cast<Slot>(kCap) + static_cast<Slot>(i))
        << i;  // oldest retained first
  }
  std::remove(path.c_str());
}

TEST(BinSink, RingModeBelowCapacityKeepsEverything) {
  const std::string path = ::testing::TempDir() + "bintrace_ring_small.bin";
  {
    BinSink sink(path, 16);
    for (Slot s = 0; s < 5; ++s) sink.record(Event::wake(s, 1));
  }
  const ParsedTraceFile parsed = read_trace_file(path);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_TRUE(parsed.ring);
  EXPECT_EQ(parsed.dropped, 0u);
  ASSERT_EQ(parsed.events.size(), 5u);
  EXPECT_EQ(parsed.events.front().slot, 0);
  EXPECT_EQ(parsed.events.back().slot, 4);
  std::remove(path.c_str());
}

TEST(BinSink, RingFileNeverGrowsBeyondCapacity) {
  const std::string path = ::testing::TempDir() + "bintrace_ring_size.bin";
  constexpr std::size_t kCap = 32;
  {
    BinSink sink(path, kCap);
    for (Slot s = 0; s < 10000; ++s) {
      sink.record(Event::collision(s, 0));
      if (s % 1000 == 0) sink.flush();  // repeated in-place rewrites
    }
  }
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  ASSERT_TRUE(in.good());
  EXPECT_EQ(static_cast<std::size_t>(in.tellg()),
            kBinHeaderSize + kCap * kBinRecordSize);
  std::remove(path.c_str());
}

TEST(BinSink, ReportsUnopenablePath) {
  BinSink sink("/nonexistent-dir-xyz/trace.bin");
  EXPECT_FALSE(sink.ok());
  sink.record(Event::wake(0, 0));  // silently discarded, no crash
  sink.flush();
  EXPECT_EQ(sink.written(), 0u);
}

TEST(BinSink, TruncatedTailCountsAsBadRecord) {
  const std::string path = ::testing::TempDir() + "bintrace_trunc.bin";
  {
    BinSink sink(path);
    sink.record(Event::wake(0, 0));
    sink.record(Event::wake(1, 1));
  }
  {  // chop half a record off the end
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    const auto full = static_cast<std::size_t>(in.tellg());
    in.seekg(0);
    std::string data(full - kBinRecordSize / 2, '\0');
    in.read(data.data(), static_cast<std::streamsize>(data.size()));
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  const ParsedTraceFile parsed = read_trace_file(path);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.events.size(), 1u);
  EXPECT_EQ(parsed.bad, 1u);
  std::remove(path.c_str());
}

// --------------------------- format detection -----------------------------

TEST(ReadTraceFile, AutoDetectsBinaryAndJsonl) {
  const std::string bin_path = ::testing::TempDir() + "bintrace_auto.bin";
  const std::string jsonl_path = ::testing::TempDir() + "bintrace_auto.jsonl";
  const Event e = Event::decision(42, 7, 3, 40);
  {
    BinSink bin(bin_path);
    bin.record(e);
  }
  ASSERT_TRUE(write_jsonl_file(jsonl_path, {e}));
  const ParsedTraceFile from_bin = read_trace_file(bin_path);
  ASSERT_TRUE(from_bin.ok) << from_bin.error;
  EXPECT_TRUE(from_bin.binary);
  ASSERT_EQ(from_bin.events.size(), 1u);
  EXPECT_EQ(from_bin.events[0], e);

  const ParsedTraceFile from_jsonl = read_trace_file(jsonl_path);
  ASSERT_TRUE(from_jsonl.ok) << from_jsonl.error;
  EXPECT_FALSE(from_jsonl.binary);
  ASSERT_EQ(from_jsonl.events.size(), 1u);
  EXPECT_EQ(from_jsonl.events[0], e);
  std::remove(bin_path.c_str());
  std::remove(jsonl_path.c_str());
}

TEST(ReadTraceFile, FailsCleanlyOnMissingAndGarbageInputs) {
  const ParsedTraceFile missing =
      read_trace_file("/nonexistent-dir-xyz/log.bin");
  EXPECT_FALSE(missing.ok);
  EXPECT_FALSE(missing.error.empty());

  const std::string garbage = ::testing::TempDir() + "bintrace_garbage.txt";
  {
    std::ofstream out(garbage);
    out << "this is not a trace log\nsecond line\n";
  }
  const ParsedTraceFile bad = read_trace_file(garbage);
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.empty());
  std::remove(garbage.c_str());
}

TEST(ReadTraceFile, EmptyFileIsAnError) {
  // A zero-byte file is neither a binary log nor a JSONL log; before the
  // explicit check it silently parsed as an empty JSONL capture.
  const std::string path = ::testing::TempDir() + "bintrace_empty.log";
  { std::ofstream out(path); }
  const ParsedTraceFile empty = read_trace_file(path);
  EXPECT_FALSE(empty.ok);
  EXPECT_NE(empty.error.find("empty"), std::string::npos) << empty.error;
  std::remove(path.c_str());
}

TEST(ReadTraceFile, TrailingPartialJsonlLineIsToleratedAsBad) {
  // A crash mid-write leaves an unterminated final line; the reader must
  // keep every complete record and count the tail as malformed.
  const std::string path = ::testing::TempDir() + "bintrace_partial.jsonl";
  const Event e = Event::decision(42, 7, 3, 40);
  ASSERT_TRUE(write_jsonl_file(path, {e}));
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"slot\":43,\"kind\":\"dec";  // cut off mid-record, no newline
  }
  const ParsedTraceFile log = read_trace_file(path);
  ASSERT_TRUE(log.ok) << log.error;
  EXPECT_FALSE(log.binary);
  ASSERT_EQ(log.events.size(), 1u);
  EXPECT_EQ(log.events[0], e);
  EXPECT_EQ(log.bad, 1u);
  std::remove(path.c_str());
}

TEST(ReadTraceFile, FailsCleanlyOnCorruptBinaryHeader) {
  const std::string path = ::testing::TempDir() + "bintrace_badheader.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "URNB";  // right magic, truncated header
  }
  const ParsedTraceFile bad = read_trace_file(path);
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.empty());
  std::remove(path.c_str());
}

// -------------------------- monitor replay --------------------------------

TEST(BinTrace, MonitoredRunReplayedFromBinMatchesLiveReport) {
  Rng rng(909);
  const auto net = graph::random_udg(40, 5.0, 1.4, rng);
  const auto delta = std::max(2u, net.graph.max_closed_degree());
  const core::Params params =
      core::Params::practical(net.graph.num_nodes(), delta, 5, 12);
  const auto ws = radio::WakeSchedule::synchronous(net.graph.num_nodes());

  const std::string path = ::testing::TempDir() + "bintrace_monitor.bin";
  core::TraceOptions trace;
  trace.events_bin = path;
  trace.monitor = true;
  const auto run =
      core::run_coloring_traced(net.graph, params, ws, /*seed=*/17, trace);
  ASSERT_TRUE(run.all_decided);
  ASSERT_TRUE(run.monitor.has_value());
  const MonitorReport& live = *run.monitor;

  const ParsedTraceFile parsed = read_trace_file(path);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ASSERT_EQ(parsed.events.size(), run.events_recorded);

  InvariantMonitorSink replay(
      core::make_monitor_config(net.graph, params, ws));
  for (const Event& e : parsed.events) replay.record(e);
  const MonitorReport replayed = replay.report();

  EXPECT_EQ(replayed.events_seen, live.events_seen);
  EXPECT_EQ(replayed.nodes_seen, live.nodes_seen);
  for (std::size_t i = 0; i < kNumInvariants; ++i) {
    EXPECT_EQ(replayed.invariants[i].count, live.invariants[i].count) << i;
    EXPECT_EQ(replayed.invariants[i].first_slot, live.invariants[i].first_slot)
        << i;
    EXPECT_EQ(replayed.invariants[i].first_node, live.invariants[i].first_node)
        << i;
    EXPECT_EQ(replayed.invariants[i].first_what, live.invariants[i].first_what)
        << i;
  }
  std::remove(path.c_str());
}

// ----------------------- a minimal JSON validator -------------------------

/// Just enough JSON to validate the exporter's output: parses the full
/// grammar into a tree of values; numbers are kept as doubles.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  [[nodiscard]] bool has(const std::string& key) const {
    return object.find(key) != object.end();
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse(Json& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }
  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(const char* lit) {
    const std::size_t len = std::string(lit).size();
    if (s_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }
  bool string_value(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char esc = s_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            if (pos_ + 4 > s_.size()) return false;
            pos_ += 4;  // validated but not decoded; fine for this test
            c = '?';
            break;
          default: c = esc; break;
        }
      }
      out.push_back(c);
    }
    return consume('"');
  }
  bool value(Json& out) {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return object_value(out);
    if (c == '[') return array_value(out);
    if (c == '"') {
      out.type = Json::Type::kString;
      return string_value(out.string);
    }
    if (c == 't') {
      out.type = Json::Type::kBool;
      out.boolean = true;
      return literal("true");
    }
    if (c == 'f') {
      out.type = Json::Type::kBool;
      return literal("false");
    }
    if (c == 'n') return literal("null");
    // number
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out.type = Json::Type::kNumber;
    out.number = std::strtod(s_.substr(start, pos_ - start).c_str(), nullptr);
    return true;
  }
  bool object_value(Json& out) {
    if (!consume('{')) return false;
    out.type = Json::Type::kObject;
    skip_ws();
    if (consume('}')) return true;
    for (;;) {
      skip_ws();
      std::string key;
      if (!string_value(key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      Json v;
      if (!value(v)) return false;
      out.object.emplace(std::move(key), std::move(v));
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return false;
    }
  }
  bool array_value(Json& out) {
    if (!consume('[')) return false;
    out.type = Json::Type::kArray;
    skip_ws();
    if (consume(']')) return true;
    for (;;) {
      Json v;
      if (!value(v)) return false;
      out.array.push_back(std::move(v));
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return false;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// --------------------------- chrome export --------------------------------

TEST(ChromeExport, EveryRecordCarriesPhTsPidTid) {
  MemorySink memory;
  const auto stats = run_with_sink(/*seed=*/51, 32, &memory);
  ASSERT_TRUE(stats.all_decided);

  const std::string path = ::testing::TempDir() + "bintrace_chrome.json";
  ASSERT_TRUE(write_chrome_trace_file(path, memory.events()));

  const std::string text = slurp(path);
  Json root;
  ASSERT_TRUE(JsonParser(text).parse(root)) << "export is not valid JSON";
  ASSERT_EQ(root.type, Json::Type::kObject);
  ASSERT_TRUE(root.has("traceEvents"));
  const Json& records = root.object.at("traceEvents");
  ASSERT_EQ(records.type, Json::Type::kArray);
  ASSERT_GT(records.array.size(), memory.size() / 4);

  std::size_t slices = 0, instants = 0, meta = 0;
  for (const Json& r : records.array) {
    ASSERT_EQ(r.type, Json::Type::kObject);
    ASSERT_TRUE(r.has("ph"));
    ASSERT_TRUE(r.has("ts"));
    ASSERT_TRUE(r.has("pid"));
    ASSERT_TRUE(r.has("tid"));
    EXPECT_EQ(r.object.at("ph").type, Json::Type::kString);
    EXPECT_EQ(r.object.at("ts").type, Json::Type::kNumber);
    EXPECT_EQ(r.object.at("pid").type, Json::Type::kNumber);
    EXPECT_EQ(r.object.at("tid").type, Json::Type::kNumber);
    const std::string& ph = r.object.at("ph").string;
    if (ph == "X") ++slices;
    if (ph == "i") ++instants;
    if (ph == "M") ++meta;
    if (ph != "M") {
      EXPECT_EQ(static_cast<int>(r.object.at("pid").number),
                ChromeTraceWriter::kSlotPid);
    }
  }
  EXPECT_GT(slices, 0u);    // phase residencies
  EXPECT_GT(instants, 0u);  // medium / protocol point events
  EXPECT_GT(meta, 0u);      // process / thread names
  std::remove(path.c_str());
}

TEST(ChromeExport, SpanCaptureExportsWorkerTracks) {
  SpanSink spans;
  spans.name_track(0, "worker 0");
  spans.name_track(1, "worker 1");
  spans.record("chunk", 0, 100, 50, /*arg=*/0);
  spans.record("chunk", 1, 120, 80, /*arg=*/1);

  const std::string path = ::testing::TempDir() + "bintrace_spans.json";
  ASSERT_TRUE(write_chrome_spans_file(path, spans));
  const std::string text = slurp(path);
  Json root;
  ASSERT_TRUE(JsonParser(text).parse(root)) << "export is not valid JSON";
  const Json& records = root.object.at("traceEvents");
  std::size_t span_slices = 0;
  for (const Json& r : records.array) {
    ASSERT_TRUE(r.has("ph"));
    ASSERT_TRUE(r.has("ts"));
    ASSERT_TRUE(r.has("pid"));
    ASSERT_TRUE(r.has("tid"));
    if (r.object.at("ph").string == "X") {
      ++span_slices;
      EXPECT_EQ(static_cast<int>(r.object.at("pid").number),
                ChromeTraceWriter::kSpanPid);
    }
  }
  EXPECT_EQ(span_slices, 2u);
  std::remove(path.c_str());
}

// -------------------------- worker chunk spans ----------------------------

TEST(Spans, ParallelTrialsRecordChunkSpansOnWorkerTracks) {
  SpanSink spans;
  exec::ExecOptions options;
  options.jobs = 2;
  options.chunk = 1;
  options.spans = &spans;
  const std::size_t trials = 8;
  const auto sum = exec::parallel_for_trials<std::uint64_t>(
      trials, options,
      [](std::uint64_t& acc, std::size_t t) { acc += t + 1; },
      [](std::uint64_t& into, std::uint64_t&& part) { into += part; });
  EXPECT_EQ(sum, trials * (trials + 1) / 2);

  const auto records = spans.snapshot();
  ASSERT_EQ(records.size(), trials);  // one span per chunk of size 1
  std::vector<bool> chunk_seen(trials, false);
  for (const SpanRecord& s : records) {
    EXPECT_STREQ(s.name, "chunk");
    EXPECT_LT(s.track, 2u);
    ASSERT_GE(s.arg, 0);
    ASSERT_LT(s.arg, static_cast<std::int64_t>(trials));
    chunk_seen[static_cast<std::size_t>(s.arg)] = true;
  }
  for (std::size_t i = 0; i < trials; ++i) {
    EXPECT_TRUE(chunk_seen[i]) << "chunk " << i << " unrecorded";
  }
  const auto names = spans.track_names();
  EXPECT_EQ(names.at(0), "worker 0");
  EXPECT_EQ(names.at(1), "worker 1");
}

}  // namespace
}  // namespace urn::obs
