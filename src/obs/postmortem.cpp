#include "obs/postmortem.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <limits>
#include <utility>

#include "obs/json.hpp"

namespace urn::obs::postmortem {

namespace {

// File-scope assembly of the on-disk layout documented in the header.
std::string render_checkpoint(EngineKind kind, std::int64_t position,
                              const std::string& scenario,
                              const std::string& engine_state) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(kCkptMagic[0]));
  w.u8(static_cast<std::uint8_t>(kCkptMagic[1]));
  w.u8(static_cast<std::uint8_t>(kCkptMagic[2]));
  w.u8(static_cast<std::uint8_t>(kCkptMagic[3]));
  w.u16(kCkptVersion);
  w.u16(static_cast<std::uint16_t>(kind));
  w.i64(position);
  std::string out = w.data();
  Writer lens;
  lens.u32(static_cast<std::uint32_t>(scenario.size()));
  out += lens.data();
  out += scenario;
  Writer lene;
  lene.u32(static_cast<std::uint32_t>(engine_state.size()));
  out += lene.data();
  out += engine_state;
  return out;
}

bool write_file_atomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote =
      bytes.empty() ||
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace

CheckpointFile read_checkpoint_file(const std::string& path) {
  CheckpointFile out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    out.error = path + ": cannot open checkpoint file";
    return out;
  }
  std::string bytes;
  char buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, got);
  }
  std::fclose(f);

  Reader r(bytes);
  char magic[4];
  magic[0] = static_cast<char>(r.u8());
  magic[1] = static_cast<char>(r.u8());
  magic[2] = static_cast<char>(r.u8());
  magic[3] = static_cast<char>(r.u8());
  if (!r.ok() || std::memcmp(magic, kCkptMagic, 4) != 0) {
    out.error = path + ": not a URNC checkpoint (bad magic)";
    return out;
  }
  out.version = r.u16();
  if (out.version > kCkptVersion) {
    out.error = path + ": checkpoint version " + std::to_string(out.version) +
                " is newer than this reader (max supported " +
                std::to_string(kCkptVersion) + ")";
    return out;
  }
  if (out.version == 0) {
    out.error = path + ": invalid checkpoint version 0";
    return out;
  }
  const std::uint16_t kind = r.u16();
  if (kind > static_cast<std::uint16_t>(EngineKind::kMisaligned)) {
    out.error = path + ": unknown engine kind " + std::to_string(kind);
    return out;
  }
  out.kind = static_cast<EngineKind>(kind);
  out.position = r.i64();

  const std::uint32_t slen = r.u32();
  if (!r.ok() || r.remaining() < slen) {
    out.error = path + ": truncated scenario section";
    return out;
  }
  const std::size_t soff = bytes.size() - r.remaining();
  out.scenario = bytes.substr(soff, slen);
  Reader r2(bytes.data() + soff + slen, r.remaining() - slen);
  const std::uint32_t elen = r2.u32();
  if (!r2.ok() || r2.remaining() < elen) {
    out.error = path + ": truncated engine-state section";
    return out;
  }
  out.engine_state = bytes.substr(soff + slen + 4, elen);
  out.ok = true;
  return out;
}

Checkpointer::Checkpointer(std::string path, EngineKind kind,
                           std::int64_t every, std::string scenario)
    : path_(std::move(path)),
      kind_(kind),
      every_(every),
      scenario_(std::move(scenario)) {}

void Checkpointer::commit(const std::string& engine_state,
                          std::int64_t position) {
  const std::string bytes =
      render_checkpoint(kind_, position, scenario_, engine_state);
  if (!write_file_atomic(path_, bytes)) {
    failed_ = true;
  } else {
    ++written_;
    last_position_ = position;
  }
  // every <= 0: one snapshot at the first opportunity, then never again.
  next_ = every_ > 0 ? position + every_
                     : std::numeric_limits<std::int64_t>::max();
}

bool ensure_dir(const std::string& path) {
  if (path.empty()) return false;
  struct stat st {};
  if (::stat(path.c_str(), &st) == 0) return S_ISDIR(st.st_mode);
  // Create parents first ("a/b/c" -> ensure "a/b" -> mkdir "a/b/c").
  const std::size_t slash = path.find_last_of('/');
  if (slash != std::string::npos && slash > 0) {
    if (!ensure_dir(path.substr(0, slash))) return false;
  }
  return ::mkdir(path.c_str(), 0755) == 0 ||
         (::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode));
}

bool write_text_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote =
      body.empty() || std::fwrite(body.data(), 1, body.size(), f) ==
                          body.size();
  return (std::fclose(f) == 0) && wrote;
}

std::string monitor_report_json(const MonitorReport& report) {
  std::string out = "{\n";
  out += "  \"total_violations\": " +
         std::to_string(report.total_violations()) + ",\n";
  out += "  \"events_seen\": " + std::to_string(report.events_seen) + ",\n";
  out += "  \"nodes_seen\": " + std::to_string(report.nodes_seen) + ",\n";
  out += "  \"invariants\": {\n";
  for (std::size_t i = 0; i < kNumInvariants; ++i) {
    const MonitorReport::PerInvariant& p = report.invariants[i];
    out += "    \"";
    out += invariant_name(static_cast<Invariant>(i));
    out += "\": {\"count\": " + std::to_string(p.count);
    if (p.count > 0) {
      out += ", \"first_slot\": " + std::to_string(p.first_slot);
      out += ", \"first_node\": " + std::to_string(p.first_node);
      out += ", \"first_what\": ";
      json::append_quoted(out, p.first_what);
    }
    out += "}";
    out += (i + 1 < kNumInvariants) ? ",\n" : "\n";
  }
  out += "  }\n}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Crash capture.  Handler state is plain statics written before arming;
// the handler itself uses only async-signal-safe syscalls except for the
// registered flush hook (documented best-effort).

namespace {

constexpr int kCrashSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL};

char g_crash_path[1024] = {0};  // "<dir>/CRASH.txt"; empty = disarmed
void (*g_flush_fn)(void*) = nullptr;
void* g_flush_arg = nullptr;

void crash_handler(int sig) {
  // Restore default dispositions first so a second fault inside the
  // handler terminates instead of recursing.
  for (const int s : kCrashSignals) std::signal(s, SIG_DFL);
  if (g_flush_fn != nullptr) g_flush_fn(g_flush_arg);
  if (g_crash_path[0] != '\0') {
    const int fd =
        ::open(g_crash_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      char buf[96];
      // Hand-rolled formatting: snprintf is not async-signal-safe.
      const char* name = sig == SIGSEGV   ? "SIGSEGV"
                         : sig == SIGABRT ? "SIGABRT"
                         : sig == SIGBUS  ? "SIGBUS"
                         : sig == SIGFPE  ? "SIGFPE"
                         : sig == SIGILL  ? "SIGILL"
                                          : "signal";
      std::size_t len = 0;
      const char* prefix = "fatal signal: ";
      for (const char* p = prefix; *p != '\0'; ++p) buf[len++] = *p;
      for (const char* p = name; *p != '\0'; ++p) buf[len++] = *p;
      buf[len++] = '\n';
      ssize_t ignored = ::write(fd, buf, len);
      (void)ignored;
      ::close(fd);
    }
  }
  ::raise(sig);
}

}  // namespace

void arm_crash_handler(const std::string& bundle_dir) {
  std::string path = bundle_dir + "/CRASH.txt";
  if (path.size() >= sizeof(g_crash_path)) return;  // silently skip
  std::memcpy(g_crash_path, path.c_str(), path.size() + 1);
  for (const int s : kCrashSignals) std::signal(s, &crash_handler);
}

void disarm_crash_handler() {
  g_crash_path[0] = '\0';
  for (const int s : kCrashSignals) std::signal(s, SIG_DFL);
}

void set_crash_flush(void (*fn)(void*), void* arg) {
  g_flush_fn = fn;
  g_flush_arg = arg;
}

}  // namespace urn::obs::postmortem
