#include "support/cli.hpp"

#include <cstdlib>
#include <sstream>

#include "support/check.hpp"

namespace urn {

namespace {

bool parse_int(const std::string& text, std::int64_t& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size()) return false;
  out = v;
  return true;
}

bool parse_double(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return false;
  out = v;
  return true;
}

bool parse_bool(const std::string& text, bool& out) {
  if (text == "true" || text == "1" || text == "yes" || text.empty()) {
    out = true;
    return true;
  }
  if (text == "false" || text == "0" || text == "no") {
    out = false;
    return true;
  }
  return false;
}

}  // namespace

void CliFlags::add_string(const std::string& name, std::string default_value,
                          std::string help) {
  URN_CHECK(!flags_.count(name));
  flags_[name] = {Type::kString, default_value, std::move(default_value),
                  std::move(help)};
  order_.push_back(name);
}

void CliFlags::add_int(const std::string& name, std::int64_t default_value,
                       std::string help) {
  URN_CHECK(!flags_.count(name));
  const std::string text = std::to_string(default_value);
  flags_[name] = {Type::kInt, text, text, std::move(help)};
  order_.push_back(name);
}

void CliFlags::add_double(const std::string& name, double default_value,
                          std::string help) {
  URN_CHECK(!flags_.count(name));
  std::ostringstream os;
  os << default_value;
  flags_[name] = {Type::kDouble, os.str(), os.str(), std::move(help)};
  order_.push_back(name);
}

void CliFlags::add_bool(const std::string& name, bool default_value,
                        std::string help) {
  URN_CHECK(!flags_.count(name));
  const std::string text = default_value ? "true" : "false";
  flags_[name] = {Type::kBool, text, text, std::move(help)};
  order_.push_back(name);
}

bool CliFlags::assign(const std::string& name, const std::string& value) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    error_ = "unknown flag --" + name;
    return false;
  }
  switch (it->second.type) {
    case Type::kInt: {
      std::int64_t v = 0;
      if (!parse_int(value, v)) {
        error_ = "flag --" + name + " expects an integer, got '" + value + "'";
        return false;
      }
      break;
    }
    case Type::kDouble: {
      double v = 0;
      if (!parse_double(value, v)) {
        error_ = "flag --" + name + " expects a number, got '" + value + "'";
        return false;
      }
      break;
    }
    case Type::kBool: {
      bool v = false;
      if (!parse_bool(value, v)) {
        error_ = "flag --" + name + " expects a boolean, got '" + value + "'";
        return false;
      }
      it->second.value = v ? "true" : "false";
      return true;
    }
    case Type::kString:
      break;
  }
  it->second.value = value;
  return true;
}

bool CliFlags::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      error_ = "unexpected positional argument '" + arg + "'";
      return false;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    std::string name, value;
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      const auto it = flags_.find(name);
      if (it == flags_.end()) {
        error_ = "unknown flag --" + name;
        return false;
      }
      if (it->second.type == Type::kBool) {
        value = "true";  // bare boolean flag
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        error_ = "flag --" + name + " is missing a value";
        return false;
      }
    }
    if (!assign(name, value)) return false;
  }
  return true;
}

const CliFlags::Flag& CliFlags::require(const std::string& name,
                                        Type type) const {
  const auto it = flags_.find(name);
  URN_CHECK_MSG(it != flags_.end(), "undeclared flag --" << name);
  URN_CHECK_MSG(it->second.type == type, "wrong type for flag --" << name);
  return it->second;
}

std::string CliFlags::get_string(const std::string& name) const {
  return require(name, Type::kString).value;
}

std::int64_t CliFlags::get_int(const std::string& name) const {
  std::int64_t v = 0;
  URN_CHECK(parse_int(require(name, Type::kInt).value, v));
  return v;
}

double CliFlags::get_double(const std::string& name) const {
  double v = 0;
  URN_CHECK(parse_double(require(name, Type::kDouble).value, v));
  return v;
}

bool CliFlags::get_bool(const std::string& name) const {
  bool v = false;
  URN_CHECK(parse_bool(require(name, Type::kBool).value, v));
  return v;
}

bool CliFlags::check_int(const std::string& name, std::int64_t lo,
                         std::int64_t hi) {
  const std::int64_t v = get_int(name);
  if (v >= lo && v <= hi) return true;
  std::ostringstream os;
  os << "flag --" << name << " must be ";
  if (hi == INT64_MAX) {
    os << ">= " << lo;
  } else {
    os << "in [" << lo << ", " << hi << "]";
  }
  os << ", got " << v;
  error_ = os.str();
  return false;
}

std::string CliFlags::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const std::string& name : order_) {
    const Flag& f = flags_.at(name);
    os << "  --" << name << " (default: " << f.default_value << ")\n"
       << "      " << f.help << '\n';
  }
  return os.str();
}

}  // namespace urn
