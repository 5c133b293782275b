/// \file json.hpp
/// \brief The one flat-JSON codec: every `{"dotted.key": scalar, ...}`
///        object the repo writes or reads goes through this module.
///
/// The simulator's machine-readable outputs are all flat objects —
/// `BENCH_<name>.json` summaries, `urn_explain --json`, telemetry
/// snapshot lines, postmortem manifests and JSONL trace events — so no
/// general JSON machinery is needed: a value is a number, a bool or a
/// quoted string.  This module owns the three decisions every one of
/// those files shares:
///
///  * **Quoting** (`append_quoted`): `"` and `\` are backslash-escaped,
///    `\n` `\r` `\t` written by name, every other byte below 0x20 as
///    `\u00XX`; all other bytes, UTF-8 sequences included, are copied.
///  * **Layout** (`Doc::render`): the multi-line block of BENCH files
///    and `urn_explain --json`, or the one-line form of telemetry lines,
///    manifests and JSONL events.
///  * **Parsing** (`parse`): a tokenizer that returns the members in
///    order, each with its value text as written and — for strings —
///    the decoded content.  It decodes what `append_quoted` writes
///    (`\u` escapes below U+0080 included) and rejects every other
///    escape: the repo reads only files its own writers produced.
///
/// Number rendering stays each writer's decision: `Doc::add(key, double)`
/// is the `%.6g` form of BENCH summaries and telemetry; a writer with
/// its own form (explain's round-trip digits, the manifest's
/// `std::to_string`) renders the text and calls `add_raw`.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace urn::obs::json {

// --- writer primitives ---------------------------------------------------

/// Append `s` as a JSON string literal, quotes included (see the file
/// comment for the escapes).
void append_quoted(std::string& out, std::string_view s);

/// Append `"key":` — a quoted key and its colon, no space.
void append_key(std::string& out, std::string_view key);

/// Decimal integers, locale-free (`std::to_chars`).
void append_int(std::string& out, std::int64_t v);
void append_uint(std::string& out, std::uint64_t v);

/// `%.6g`: the short number form of BENCH summaries and telemetry.
void append_g6(std::string& out, double v);

// --- documents -------------------------------------------------------------

/// One member of a flat object.
struct Entry {
  std::string key;
  std::string raw;       ///< value text as written (strings keep quotes)
  std::string text;      ///< decoded content of a string value, else ""
  bool numeric = false;  ///< raw parses fully as a double
  double value = 0.0;    ///< the numeric value (0 when !numeric)

  [[nodiscard]] bool is_string() const {
    return !raw.empty() && raw.front() == '"';
  }
};

enum class Layout {
  kBlock,  ///< `{\n  "k": v,\n  ...\n}\n` — BENCH files, urn_explain --json
  kLine,   ///< `{"k":v,...}\n` — telemetry, manifests, JSONL events
};

/// A flat JSON object: members in insertion (or file) order, duplicate
/// keys kept as added.  `find` returns the first match.
struct Doc {
  std::vector<Entry> entries;
  bool ok = false;  ///< set by `parse`: the text was one flat object

  [[nodiscard]] const Entry* find(std::string_view key) const;

  /// Append a member whose value text the caller rendered.
  void add_raw(std::string key, std::string raw);
  void add(std::string key, std::int64_t v);
  void add(std::string key, std::uint64_t v);
  void add(std::string key, std::int32_t v);
  void add(std::string key, std::uint32_t v);
  void add(std::string key, double v);  ///< `%.6g`
  void add(std::string key, bool v);
  void add(std::string key, std::string_view v);
  void add(std::string key, const char* v);

  [[nodiscard]] std::string render(Layout layout) const;
};

/// Parse one flat object.  `ok` is false unless the text opens with `{`
/// and every member up to the closing `}` is a quoted key, a colon and
/// a scalar; a string with an escape the quoter does not write fails
/// the document.  Numbers are read with `std::from_chars` (locale-free).
[[nodiscard]] Doc parse(std::string_view text);
/// Read and parse a file; `ok` is false when it cannot be opened.
[[nodiscard]] Doc read_file(const std::string& path);

}  // namespace urn::obs::json
