/// \file table.hpp
/// \brief Fixed-width result tables for the benchmark harness.
///
/// Every bench binary prints its series as one of these tables (the rows a
/// paper table would hold) and, when the environment variable
/// `URN_BENCH_CSV` names a directory, also writes `<name>.csv` there.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace urn::analysis {

/// A simple column-formatted table with CSV export.
class Table {
 public:
  /// \param name  machine name (used for the CSV file name)
  /// \param title human-readable caption printed above the table
  Table(std::string name, std::string title);

  /// Define the column headers; must be called before any row.
  void set_header(std::vector<std::string> header);

  /// Append a row (cells already formatted). Must match header arity.
  void add_row(std::vector<std::string> row);

  /// Format helpers.
  [[nodiscard]] static std::string num(double v, int precision = 2);
  [[nodiscard]] static std::string num(std::int64_t v);
  [[nodiscard]] static std::string num(std::uint64_t v);

  /// Print with aligned columns.
  void print(std::ostream& os) const;

  /// Write CSV to `<dir>/<name>.csv`; returns the path written.
  std::string write_csv(const std::string& dir) const;

  /// Print to stdout and, if URN_BENCH_CSV is set and non-empty, export
  /// CSV there.
  void emit() const;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

 private:
  std::string name_;
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace urn::analysis
