#include "analysis/table.hpp"

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "support/check.hpp"

namespace urn::analysis {

Table::Table(std::string name, std::string title)
    : name_(std::move(name)), title_(std::move(title)) {}

void Table::set_header(std::vector<std::string> header) {
  URN_CHECK(rows_.empty());
  header_ = std::move(header);
}

void Table::add_row(std::vector<std::string> row) {
  URN_CHECK_MSG(row.size() == header_.size(),
                "row arity " << row.size() << " != header " << header_.size());
  rows_.push_back(std::move(row));
}

std::string Table::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string Table::num(std::int64_t v) { return std::to_string(v); }
std::string Table::num(std::uint64_t v) { return std::to_string(v); }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    width[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  os << "== " << title_ << " ==\n";
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : "  ") << std::setw(static_cast<int>(width[c]))
         << row[c];
    }
    os << '\n';
  };
  print_row(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c) {
    total += width[c] + (c == 0 ? 0 : 2);
  }
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
  os << '\n';
}

std::string Table::write_csv(const std::string& dir) const {
  const std::string path = dir + "/" + name_ + ".csv";
  std::ofstream out(path);
  URN_CHECK_MSG(out.good(), "cannot open " << path);
  auto write_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << (c == 0 ? "" : ",") << row[c];
    }
    out << '\n';
  };
  write_row(header_);
  for (const auto& row : rows_) write_row(row);
  return path;
}

void Table::emit() const {
  print(std::cout);
  const char* dir = std::getenv("URN_BENCH_CSV");
  if (dir != nullptr && *dir != '\0') {
    const std::string path = write_csv(dir);
    std::cout << "[csv] " << path << '\n';
  }
}

}  // namespace urn::analysis
