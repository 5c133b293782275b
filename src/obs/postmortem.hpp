/// \file postmortem.hpp
/// \brief Versioned binary engine checkpoints and postmortem bundles.
///
/// The flight recorder (PR 4's bounded ring) retains the last N events of
/// a run, but events alone are half a black box: they show what happened,
/// not the engine state it happened *to*.  This header adds the other
/// half — a complete, versioned serialization of engine state (every
/// node's protocol state, the live/undecided lists, the slot cursor, all
/// RNG streams) from which a run can be **resumed bit-identically**: same
/// RNG draw sequence, same `RunStats`, same per-node final state as the
/// uninterrupted run.
///
/// Checkpoint file layout (`checkpoint.urnc`, little-endian throughout):
///
///     offset  size  field
///     0       4     magic "URNC"
///     4       2     format version (kCkptVersion)
///     6       2     engine kind (0 = aligned Engine, 1 = MisalignedEngine)
///     8       8     position (slot for aligned; half-slot for misaligned)
///     16      4     scenario section length S
///     20      S     scenario section (graph/params/schedule/seed manifest,
///                   written by the core layer — see core/checkpoint.hpp)
///     20+S    4     engine-state section length E
///     24+S    E     engine-state section (Engine::save_state bytes)
///
/// The file is self-contained: the scenario section carries everything
/// needed to reconstruct the engine (graph edges, params, wake schedule,
/// seed, medium options), so resuming never re-runs a topology generator.
///
/// The obs layer deliberately knows nothing about graphs or protocols:
/// `Checkpointer` takes the scenario section as an opaque pre-rendered
/// byte string and the engine state through the engine's own
/// `save_state(Writer&)`.  It reaches the engine through the run's
/// observer (the engine's sink parameter): an observer that defines
/// `on_tick(engine, tick)` is called at the top of every `run()`
/// iteration and forwards to `maybe_checkpoint`; sinks without the hook
/// (`NullSink` and every plain sink) compile it away.

#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

#include "obs/monitor.hpp"
#include "support/rng.hpp"

namespace urn::obs::postmortem {

// ---------------------------------------------------------------------------
// Byte codecs.

/// Append-only little-endian byte buffer; the single writer used for every
/// checkpoint section so the on-disk byte order is fixed regardless of
/// host endianness.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { put(v, 2); }
  void u32(std::uint32_t v) { put(v, 4); }
  void u64(std::uint64_t v) { put(v, 8); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  [[nodiscard]] const std::string& data() const { return buf_; }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  void put(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }
  std::string buf_;
};

/// Bounds-checked little-endian reader over a byte string.  A short or
/// corrupt buffer never reads out of bounds: the first failing read
/// latches `ok() == false` and every later read returns 0.
class Reader {
 public:
  explicit Reader(const std::string& bytes)
      : p_(bytes.data()), size_(bytes.size()) {}
  Reader(const char* data, std::size_t size) : p_(data), size_(size) {}

  [[nodiscard]] std::uint8_t u8() {
    if (!need(1)) return 0;
    return static_cast<std::uint8_t>(p_[pos_++]);
  }
  [[nodiscard]] std::uint16_t u16() {
    return static_cast<std::uint16_t>(get(2));
  }
  [[nodiscard]] std::uint32_t u32() {
    return static_cast<std::uint32_t>(get(4));
  }
  [[nodiscard]] std::uint64_t u64() { return get(8); }
  [[nodiscard]] std::int32_t i32() {
    return static_cast<std::int32_t>(u32());
  }
  [[nodiscard]] std::int64_t i64() {
    return static_cast<std::int64_t>(u64());
  }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  [[nodiscard]] bool boolean() { return u8() != 0; }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

 private:
  [[nodiscard]] bool need(std::size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }
  [[nodiscard]] std::uint64_t get(std::size_t bytes) {
    if (!need(bytes)) return 0;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(p_[pos_ + i]))
           << (8 * i);
    }
    pos_ += bytes;
    return v;
  }

  const char* p_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Rng stream codec, shared by both engines' save/load paths.  The full
/// `Rng::Snapshot` is written (state words plus the cached normal spare)
/// so restored streams replay draw-for-draw.
inline void write_rng(Writer& w, const Rng& rng) {
  const Rng::Snapshot s = rng.snapshot();
  for (const std::uint64_t word : s.state) w.u64(word);
  w.boolean(s.have_spare_normal);
  w.f64(s.spare_normal);
}

inline bool read_rng(Reader& r, Rng& rng) {
  Rng::Snapshot s;
  for (auto& word : s.state) word = r.u64();
  s.have_spare_normal = r.boolean();
  s.spare_normal = r.f64();
  if (!r.ok()) return false;
  rng.restore(s);
  return true;
}

// ---------------------------------------------------------------------------
// Checkpoint file format.

inline constexpr char kCkptMagic[4] = {'U', 'R', 'N', 'C'};
/// Version 2 changed only the misaligned engine-state section (it became
/// the shared engine core's layout); aligned sections are byte-identical
/// to version 1, so version-1 aligned checkpoints still load.
inline constexpr std::uint16_t kCkptVersion = 2;
inline constexpr std::size_t kCkptHeaderSize = 16;
inline constexpr const char* kCkptFileName = "checkpoint.urnc";
inline constexpr const char* kRingFileName = "ring.bin";
inline constexpr const char* kManifestFileName = "manifest.json";
inline constexpr const char* kMonitorFileName = "monitor.json";
inline constexpr const char* kTelemetryFileName = "telemetry.json";

enum class EngineKind : std::uint16_t {
  kAligned = 0,     ///< radio::Engine (globally slotted)
  kMisaligned = 1,  ///< radio::MisalignedEngine (per-node slot offsets)
};

/// Raw parsed checkpoint file: header fields plus the two opaque
/// sections.  The core layer decodes `scenario` (core::read_scenario) and
/// the matching engine decodes `engine_state` (Engine::load_state).
struct CheckpointFile {
  std::uint16_t version = 0;
  EngineKind kind = EngineKind::kAligned;
  std::int64_t position = 0;
  std::string scenario;      ///< scenario section bytes
  std::string engine_state;  ///< engine-state section bytes
  bool ok = false;
  std::string error;  ///< one-line diagnostic when !ok
};

/// Read and validate a checkpoint file.  A version newer than
/// `kCkptVersion` is rejected with a "newer than this reader" error
/// (same contract as the binary trace reader).
[[nodiscard]] CheckpointFile read_checkpoint_file(const std::string& path);

// ---------------------------------------------------------------------------
// Engine hooks.

/// Periodic checkpoint writer.  The run's observer calls
/// `maybe_checkpoint(engine, pos)` from its `on_tick` hook at the top of
/// each run-loop iteration, and the checkpointer serializes a full
/// snapshot every `every` position units (slots for the aligned engine,
/// half-slots for the misaligned one).  `every <= 0` means a single
/// snapshot at the first opportunity (the run start), so
/// `--dump-on-violation` alone still leaves a resumable checkpoint.
///
/// Each snapshot atomically replaces `path` (write to `path.tmp`, then
/// rename), so a crash mid-write never corrupts the last good checkpoint.
/// Serialization only reads engine state — a checkpointed run stays
/// bit-identical to an unhooked one.
class Checkpointer {
 public:
  /// \param path destination file (conventionally `<dir>/checkpoint.urnc`)
  /// \param kind engine flavor recorded in the header
  /// \param every snapshot period in position units; <= 0 = once at start
  /// \param scenario pre-rendered scenario section (core::write_scenario)
  Checkpointer(std::string path, EngineKind kind, std::int64_t every,
               std::string scenario);

  template <typename Engine>
  void maybe_checkpoint(const Engine& engine, std::int64_t position) {
    if (position < next_) return;
    take(engine, position);
  }

  /// Force a snapshot now (used for post-deactivate checkpoints and
  /// tests); also advances the periodic cursor.
  template <typename Engine>
  void take(const Engine& engine, std::int64_t position) {
    Writer state;
    engine.save_state(state);
    commit(state.data(), position);
  }

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::size_t checkpoints_written() const { return written_; }
  [[nodiscard]] std::int64_t last_position() const { return last_position_; }
  /// True if any snapshot failed to persist (disk full, bad dir, ...).
  [[nodiscard]] bool failed() const { return failed_; }

 private:
  void commit(const std::string& engine_state, std::int64_t position);

  std::string path_;
  EngineKind kind_;
  std::int64_t every_;
  std::string scenario_;
  std::int64_t next_ = 0;  ///< next position at/after which to snapshot
  std::int64_t last_position_ = -1;
  std::size_t written_ = 0;
  bool failed_ = false;
};

// ---------------------------------------------------------------------------
// Bundle helpers.

/// mkdir -p: create `path` and any missing parents.  Returns false on
/// failure (and on a pre-existing non-directory).
bool ensure_dir(const std::string& path);

/// Write `body` to `path` (truncating).  Returns false on I/O failure.
bool write_text_file(const std::string& path, const std::string& body);

/// Render a MonitorReport as a small nested JSON document (the bundle's
/// `monitor.json`): total/per-invariant counts plus each first violation,
/// strings quoted by `json::append_quoted` (obs/json.hpp).
[[nodiscard]] std::string monitor_report_json(const MonitorReport& report);

// ---------------------------------------------------------------------------
// Crash capture.

/// Arm a fatal-signal handler (SIGSEGV / SIGABRT / SIGBUS / SIGFPE /
/// SIGILL) that writes `<dir>/CRASH.txt` naming the signal, invokes the
/// registered flush hook (best effort — it may not be fully
/// async-signal-safe, but on a crash path a torn ring file still beats no
/// ring file), and re-raises with the default disposition so the exit
/// status is preserved.  The last armed directory wins; `disarm` restores
/// the default handlers.
void arm_crash_handler(const std::string& bundle_dir);
void disarm_crash_handler();

/// Register a flush hook run by the crash handler before re-raising
/// (typically the flight-recorder ring's flush).  Pass (nullptr, nullptr)
/// to clear.  One slot; the last registration wins.
void set_crash_flush(void (*fn)(void*), void* arg);

}  // namespace urn::obs::postmortem
