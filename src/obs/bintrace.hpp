/// \file bintrace.hpp
/// \brief Compact binary trace capture: a fixed-record little-endian
///        event writer (`BinSink`) and the trace reader
///        (`read_trace_file`, URNB or JSONL).
///
/// URNB is the one on-line log format: each `Event` is one fixed 32-byte
/// little-endian record behind a 24-byte versioned header, a bounded
/// `memcpy`-grade cost per event (m1_micro's `BM_Sink*` family measures
/// it) where JSONL's ~80 text bytes kept always-on tracing off the dense
/// sweeps.  JSONL is a converter output (`write_jsonl_file` in trace.hpp,
/// `urn_trace --export jsonl:PATH`).
///
/// ## File format (version 1, all integers little-endian)
///
///     header  (24 bytes):
///       [0..4)   magic   "URNB"
///       [4..6)   u16 version       = 1
///       [6..8)   u16 record size   = 32
///       [8..12)  u32 flags         (bit 0: ring mode — suffix only)
///       [12..16) u32 reserved      = 0
///       [16..24) u64 dropped       events evicted before the retained
///                                  suffix (ring mode; 0 when streaming)
///     record  (32 bytes), repeated to EOF:
///       [0..8)   i64 slot          [16..20) u32 node
///       [8..16)  i64 value         [20..24) u32 peer
///       [24..28) i32 color
///       [28] u8 kind   [29] u8 msg   [30] u8 phase   [31] u8 pad = 0
///
/// The record is a field-for-field image of `obs::Event`: every stream
/// of events round-trips bit-exactly through `BinSink` →
/// `read_trace_file`, so every trace consumer (monitor replay, Fig. 2
/// validation, metrics re-derivation, `urn_trace --export`) works
/// unchanged on events read back from a `.bin` capture.
///
/// `BinSink` has two modes:
///  * **streaming** — append every record, buffered in 64 KiB chunks;
///  * **bounded ring** — retain only the most recent `ring_capacity`
///    events in O(1) memory and persist that suffix on `flush()` /
///    destruction (an always-on flight recorder: the file is rewritten
///    in place, never growing beyond header + capacity records).

#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/event.hpp"

namespace urn::obs {

/// First four bytes of every binary trace file.
inline constexpr char kBinMagic[4] = {'U', 'R', 'N', 'B'};
inline constexpr std::uint16_t kBinVersion = 1;
inline constexpr std::size_t kBinHeaderSize = 24;
inline constexpr std::size_t kBinRecordSize = 32;
/// Header flag bit: the file holds only the most recent events.
inline constexpr std::uint32_t kBinFlagRing = 1u << 0;

/// Serialize `e` into `rec` (\pre spans kBinRecordSize bytes).  The
/// byte-shift loops compile to plain stores on little-endian hosts, so
/// this is memcpy-grade — the hot path of both append_bin and
/// BinSink::record, inline so a traced run's per-event cost is a few
/// stores.
inline void store_record(unsigned char* rec, const Event& e) {
  const auto store = [](unsigned char* p, std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      p[i] = static_cast<unsigned char>(v >> (8 * i));
    }
  };
  store(rec, static_cast<std::uint64_t>(e.slot), 8);
  store(rec + 8, static_cast<std::uint64_t>(e.value), 8);
  store(rec + 16, e.node, 4);
  store(rec + 20, e.peer, 4);
  store(rec + 24, static_cast<std::uint32_t>(e.color), 4);
  rec[28] = static_cast<unsigned char>(e.kind);
  rec[29] = e.msg;
  rec[30] = e.phase;
  rec[31] = 0;
}

/// Serialize `e` as one 32-byte little-endian record appended to `out`.
void append_bin(std::string& out, const Event& e);

/// Decode one 32-byte record (\pre `data` spans kBinRecordSize bytes).
/// Returns false on an out-of-range kind byte.
[[nodiscard]] bool parse_bin_record(const unsigned char* data, Event& out);

/// Binary event writer; see the file comment for the two modes.
class BinSink {
 public:
  /// Opens `path` (truncating) and writes the header.  `ring_capacity`
  /// of 0 streams every event; > 0 bounds retention to the most recent
  /// `ring_capacity` events.  `ok()` reports open failure; records on a
  /// failed sink are silently discarded.
  explicit BinSink(const std::string& path, std::size_t ring_capacity = 0);
  BinSink(const BinSink&) = delete;
  BinSink& operator=(const BinSink&) = delete;
  ~BinSink();

  static constexpr bool kEnabled = true;

  /// Streaming mode serializes `e` in place, inline; ring mode keeps it
  /// out of line (`record_ring`).
  void record(const Event& e) {
    if (file_ == nullptr) return;
    ++written_;
    if (capacity_ > 0) {
      record_ring(e);
      return;
    }
    store_record(reinterpret_cast<unsigned char*>(buffer_.data()) + len_, e);
    len_ += kBinRecordSize;
    if (len_ >= kFlushThreshold) flush();
  }
  void flush();

  [[nodiscard]] bool ok() const { return file_ != nullptr; }
  /// Events offered so far (ring mode: may exceed what the file keeps).
  [[nodiscard]] std::uint64_t written() const { return written_; }
  /// Events the file retains (== written() when streaming).
  [[nodiscard]] std::uint64_t retained() const;
  /// File bytes emitted so far, header included.
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] bool ring_mode() const { return capacity_ > 0; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static constexpr std::size_t kFlushThreshold = 1 << 16;

  /// Ring mode's half of `record` (`written_` already counts `e`).
  void record_ring(const Event& e);

  /// The 24-byte header image for the current state (ring flushes
  /// refresh the dropped count on every rewrite).
  [[nodiscard]] std::string header_bytes() const;

  std::string path_;
  std::FILE* file_ = nullptr;
  /// Streaming-mode serialization buffer: sized once in the
  /// constructor; record() serializes in place at offset `len_`.
  std::string buffer_;
  std::size_t len_ = 0;          ///< valid bytes in buffer_ (streaming)
  std::size_t capacity_ = 0;     ///< ring capacity (0 = streaming)
  std::vector<Event> ring_;      ///< ring storage (ring mode only)
  std::size_t next_ = 0;         ///< ring overwrite cursor once full
  std::uint64_t written_ = 0;    ///< events offered
  std::uint64_t bytes_ = 0;      ///< file bytes emitted
};

/// A trace log of either format, auto-detected.
struct ParsedTraceFile {
  std::vector<Event> events;
  bool ok = false;
  bool binary = false;      ///< detected format
  bool ring = false;        ///< URNB captured in ring mode (suffix only)
  std::size_t records = 0;  ///< lines (JSONL) or records (binary) seen
  std::size_t bad = 0;      ///< malformed lines / records (non-fatal)
  std::uint64_t dropped = 0;  ///< ring-mode evictions (binary only)
  std::string error;        ///< set when !ok (unreadable / bad header /
                            ///< first JSONL line unparseable)
};

/// The one way to read a trace back.  Opens `path`, sniffs the first
/// four bytes for the binary magic, and parses accordingly (anything
/// else is treated as JSONL).  `ok` is
/// false — with `error` set — when the file cannot be opened, is empty,
/// a binary header is malformed, or a JSONL file's first non-empty line
/// does not parse (i.e. the file is not a trace log at all).  Tails are
/// tolerant in both formats: a trailing partial record / line only
/// bumps `bad`.
[[nodiscard]] ParsedTraceFile read_trace_file(const std::string& path);

}  // namespace urn::obs
