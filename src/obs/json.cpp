#include "obs/json.hpp"

#include <charconv>
#include <cstdio>

namespace urn::obs::json {

namespace {

constexpr std::size_t kNone = std::string_view::npos;

void skip_ws(std::string_view text, std::size_t& i) {
  while (i < text.size() && (text[i] == ' ' || text[i] == '\t' ||
                             text[i] == '\n' || text[i] == '\r')) {
    ++i;
  }
}

/// One past the closing quote of the string literal opening at
/// `text[i] == '"'`; kNone when it is unterminated.
[[nodiscard]] std::size_t string_end(std::string_view text, std::size_t i) {
  for (++i; i < text.size(); ++i) {
    if (text[i] == '\\') {
      ++i;
    } else if (text[i] == '"') {
      return i + 1;
    }
  }
  return kNone;
}

/// Decode the string literal `lit` (quotes included) into `out`: the
/// escapes `append_quoted` writes, `\uXXXX` for any code point below
/// U+0080.  False on anything else.
[[nodiscard]] bool unquote(std::string_view lit, std::string& out) {
  out.clear();
  const std::size_t close = lit.size() - 1;  // index of the closing quote
  for (std::size_t i = 1; i < close; ++i) {
    if (lit[i] != '\\') {
      out.push_back(lit[i]);
      continue;
    }
    switch (lit[++i]) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        if (i + 5 > close) return false;
        unsigned cp = 0;
        const char* hex = lit.data() + i + 1;
        const auto [ptr, ec] = std::from_chars(hex, hex + 4, cp, 16);
        if (ec != std::errc{} || ptr != hex + 4 || cp >= 0x80) return false;
        out.push_back(static_cast<char>(cp));
        i += 4;
        break;
      }
      default:
        return false;
    }
  }
  return true;
}

/// Fill `text` / `numeric` / `value` from `raw`, the same way for a
/// parsed member and an added one.
[[nodiscard]] bool classify(Entry& e) {
  e.text.clear();
  e.numeric = false;
  e.value = 0.0;
  if (e.is_string()) return unquote(e.raw, e.text);
  const char* end = e.raw.data() + e.raw.size();
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(e.raw.data(), end, v);
  if (ec == std::errc{} && ptr == end) {
    e.numeric = true;
    e.value = v;
  }
  return true;
}

}  // namespace

void append_quoted(std::string& out, std::string_view s) {
  out.push_back('"');
  std::size_t run = 0;  // start of the pending unescaped run
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char hex[8];
        std::snprintf(hex, sizeof(hex), "\\u%04x", static_cast<unsigned>(c));
        out += hex;
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out.push_back('"');
}

void append_key(std::string& out, std::string_view key) {
  append_quoted(out, key);
  out.push_back(':');
}

void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

void append_uint(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

void append_g6(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

const Entry* Doc::find(std::string_view key) const {
  for (const Entry& e : entries) {
    if (e.key == key) return &e;
  }
  return nullptr;
}

void Doc::add_raw(std::string key, std::string raw) {
  Entry e;
  e.key = std::move(key);
  e.raw = std::move(raw);
  (void)classify(e);
  entries.push_back(std::move(e));
}

void Doc::add(std::string key, std::int64_t v) {
  std::string raw;
  append_int(raw, v);
  add_raw(std::move(key), std::move(raw));
}

void Doc::add(std::string key, std::uint64_t v) {
  std::string raw;
  append_uint(raw, v);
  add_raw(std::move(key), std::move(raw));
}

void Doc::add(std::string key, std::int32_t v) {
  add(std::move(key), static_cast<std::int64_t>(v));
}

void Doc::add(std::string key, std::uint32_t v) {
  add(std::move(key), static_cast<std::uint64_t>(v));
}

void Doc::add(std::string key, double v) {
  std::string raw;
  append_g6(raw, v);
  add_raw(std::move(key), std::move(raw));
}

void Doc::add(std::string key, bool v) {
  add_raw(std::move(key), v ? "true" : "false");
}

void Doc::add(std::string key, std::string_view v) {
  std::string raw;
  append_quoted(raw, v);
  add_raw(std::move(key), std::move(raw));
}

void Doc::add(std::string key, const char* v) {
  add(std::move(key), std::string_view(v));
}

std::string Doc::render(Layout layout) const {
  const bool block = layout == Layout::kBlock;
  std::string out = block ? "{\n" : "{";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (block) out += "  ";
    append_key(out, entries[i].key);
    if (block) out.push_back(' ');
    out += entries[i].raw;
    if (i + 1 < entries.size()) out.push_back(',');
    if (block) out.push_back('\n');
  }
  out += "}\n";
  return out;
}

Doc parse(std::string_view text) {
  Doc doc;
  std::size_t i = 0;
  skip_ws(text, i);
  if (i >= text.size() || text[i] != '{') return doc;
  ++i;
  doc.entries.reserve(8);  // a JSONL event line's members, no regrowth
  while (true) {
    skip_ws(text, i);
    if (i >= text.size()) return doc;  // unterminated object
    if (text[i] == '}') break;
    if (text[i] == ',') {
      ++i;
      continue;
    }
    if (text[i] != '"') return doc;
    const std::size_t key_end = string_end(text, i);
    if (key_end == kNone) return doc;
    Entry entry;
    if (!unquote(text.substr(i, key_end - i), entry.key)) return doc;
    i = key_end;
    skip_ws(text, i);
    if (i >= text.size() || text[i] != ':') return doc;
    ++i;
    skip_ws(text, i);
    const std::size_t start = i;
    std::size_t end = i;
    if (i < text.size() && text[i] == '"') {
      end = string_end(text, i);
      if (end == kNone) return doc;
      i = end;
    } else {
      // A bare scalar runs to the next separator, trailing blanks cut.
      while (i < text.size() && text[i] != ',' && text[i] != '}' &&
             text[i] != '\n') {
        ++i;
      }
      end = i;
      while (end > start && (text[end - 1] == ' ' || text[end - 1] == '\r' ||
                             text[end - 1] == '\t')) {
        --end;
      }
      if (end == start) return doc;
    }
    entry.raw.assign(text.substr(start, end - start));
    if (!classify(entry)) return doc;
    doc.entries.push_back(std::move(entry));
  }
  doc.ok = true;
  return doc;
}

Doc read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string text;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, got);
  }
  std::fclose(f);
  return parse(text);
}

}  // namespace urn::obs::json
