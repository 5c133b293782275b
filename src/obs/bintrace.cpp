#include "obs/bintrace.hpp"

#include <cstring>
#include <fstream>

namespace urn::obs {

namespace {

// Explicit little-endian codecs: the format is defined byte-for-byte,
// independent of host endianness and of Event's in-memory layout.

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

[[nodiscard]] std::uint16_t get_u16(const unsigned char* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

[[nodiscard]] std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

[[nodiscard]] std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

void append_bin(std::string& out, const Event& e) {
  unsigned char rec[kBinRecordSize];
  store_record(rec, e);
  out.append(reinterpret_cast<const char*>(rec), kBinRecordSize);
}

bool parse_bin_record(const unsigned char* data, Event& out) {
  Event e;
  e.slot = static_cast<Slot>(get_u64(data));
  e.value = static_cast<std::int64_t>(get_u64(data + 8));
  e.node = get_u32(data + 16);
  e.peer = get_u32(data + 20);
  e.color = static_cast<std::int32_t>(get_u32(data + 24));
  if (data[28] >= kNumEventKinds) return false;
  e.kind = static_cast<EventKind>(data[28]);
  e.msg = data[29];
  e.phase = data[30];
  out = e;
  return true;
}

BinSink::BinSink(const std::string& path, std::size_t ring_capacity)
    : path_(path), capacity_(ring_capacity) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) return;
  // BinSink buffers records itself; an unbuffered stream skips stdio's
  // second copy of every 64 KiB chunk.
  std::setvbuf(file_, nullptr, _IONBF, 0);
  if (capacity_ > 0) {
    ring_.reserve(capacity_);
    flush();  // persist the (empty) header immediately
    return;
  }
  // Streaming mode serializes records in place at buffer_[len_]; the
  // size is fixed up front so record() never reallocates.
  buffer_.resize(kFlushThreshold + kBinRecordSize);
  const std::string header = header_bytes();
  std::memcpy(buffer_.data(), header.data(), header.size());
  len_ = header.size();
  flush();
}

BinSink::~BinSink() {
  flush();
  if (file_ != nullptr) std::fclose(file_);
}

std::string BinSink::header_bytes() const {
  std::string header;
  header.reserve(kBinHeaderSize);
  header.append(kBinMagic, sizeof(kBinMagic));
  put_u16(header, kBinVersion);
  put_u16(header, static_cast<std::uint16_t>(kBinRecordSize));
  put_u32(header, capacity_ > 0 ? kBinFlagRing : 0u);
  put_u32(header, 0u);  // reserved
  const std::uint64_t dropped =
      capacity_ > 0 && written_ > capacity_ ? written_ - capacity_ : 0;
  put_u64(header, dropped);
  return header;
}

std::uint64_t BinSink::retained() const {
  if (capacity_ == 0) return written_;
  return written_ < capacity_ ? written_ : capacity_;
}

void BinSink::record_ring(const Event& e) {
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
  } else {
    ring_[next_] = e;
    next_ = (next_ + 1) % capacity_;
  }
}

void BinSink::flush() {
  if (file_ == nullptr) return;
  if (capacity_ > 0) {
    // Ring mode: rewrite header + retained suffix in place.  The
    // payload size is nondecreasing over time (it grows to capacity_
    // records, then stays constant), so no truncation is ever needed.
    std::string image = header_bytes();
    image.reserve(kBinHeaderSize + ring_.size() * kBinRecordSize);
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      append_bin(image, ring_[(next_ + i) % ring_.size()]);
    }
    std::fseek(file_, 0, SEEK_SET);
    std::fwrite(image.data(), 1, image.size(), file_);
    std::fflush(file_);
    bytes_ = image.size();
    return;
  }
  if (len_ == 0) return;
  std::fwrite(buffer_.data(), 1, len_, file_);
  std::fflush(file_);
  bytes_ += len_;
  len_ = 0;
}

namespace {

/// Read a whole file into a byte string; false when it cannot be opened.
[[nodiscard]] bool slurp(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char chunk[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    out.append(chunk, got);
  }
  std::fclose(f);
  return true;
}

/// The URNB half of `read_trace_file`: validate the header, then decode
/// every whole record; a bad kind byte or a trailing partial record
/// only bumps `bad`.
[[nodiscard]] bool read_bin(const std::string& path, ParsedTraceFile& out) {
  std::string data;
  if (!slurp(path, data)) {
    out.error = "cannot open " + path;
    return false;
  }
  if (data.size() < kBinHeaderSize) {
    out.error = path + ": truncated binary trace header";
    return false;
  }
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  if (std::memcmp(p, kBinMagic, sizeof(kBinMagic)) != 0) {
    out.error = path + ": not a binary trace (bad magic)";
    return false;
  }
  const std::uint16_t version = get_u16(p + 4);
  const std::uint16_t record_size = get_u16(p + 6);
  if (version > kBinVersion) {
    out.error = path + ": binary trace version " + std::to_string(version) +
                " is newer than this reader (max supported " +
                std::to_string(kBinVersion) + ")";
    return false;
  }
  if (version != kBinVersion) {
    out.error = path + ": unsupported binary trace version " +
                std::to_string(version);
    return false;
  }
  if (record_size != kBinRecordSize) {
    out.error = path + ": unexpected record size " +
                std::to_string(record_size);
    return false;
  }
  out.ring = (get_u32(p + 8) & kBinFlagRing) != 0;
  out.dropped = get_u64(p + 16);

  std::size_t offset = kBinHeaderSize;
  out.events.reserve((data.size() - offset) / kBinRecordSize);
  while (offset + kBinRecordSize <= data.size()) {
    Event e;
    if (parse_bin_record(p + offset, e)) {
      out.events.push_back(e);
    } else {
      ++out.bad;
    }
    offset += kBinRecordSize;
  }
  if (offset != data.size()) ++out.bad;  // trailing partial record
  out.records = out.events.size() + out.bad;
  return true;
}

/// The JSONL half: one event per non-empty line.  A first line that
/// does not parse means the file is not a trace log at all; a bad line
/// after it only bumps `bad`.
[[nodiscard]] bool read_jsonl(const std::string& path, ParsedTraceFile& out) {
  std::ifstream is(path);
  if (!is) {
    out.error = "cannot open " + path;
    return false;
  }
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ++out.records;
    Event e;
    if (parse_jsonl_line(line, e)) {
      out.events.push_back(e);
    } else if (out.records == 1) {
      out.error = path + ": first line is not a URN JSONL event";
      return false;
    } else {
      ++out.bad;
    }
  }
  return true;
}

}  // namespace

ParsedTraceFile read_trace_file(const std::string& path) {
  ParsedTraceFile out;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      out.error = "cannot open " + path;
      return out;
    }
    char magic[sizeof(kBinMagic)] = {};
    const std::size_t got = std::fread(magic, 1, sizeof(magic), f);
    std::fclose(f);
    if (got == 0) {
      // An empty capture is always a broken capture: a real trace has
      // at least a header (URNB) or one event line (JSONL).  Falling
      // through to the JSONL parser would report "ok, 0 events".
      out.error = path + ": empty trace file";
      return out;
    }
    out.binary = got == sizeof(magic) &&
                 std::memcmp(magic, kBinMagic, sizeof(magic)) == 0;
  }
  out.ok = out.binary ? read_bin(path, out) : read_jsonl(path, out);
  return out;
}

}  // namespace urn::obs
