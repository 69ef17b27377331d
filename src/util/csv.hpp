// Minimal CSV writer used by benches to dump figure series alongside the
// human-readable console tables, so plots can be regenerated externally.
// Drivers simulate before they write rows (ext_multicell_scaling's timing
// rows aside), so nothing flushes a CSV on a signal: an interrupted driver
// leaves at most a header, and its finished jobs live in the result store
// (exp/run_cache.hpp), which a re-run replays.
#pragma once

#include <fstream>
#include <initializer_list>
#include <string>
#include <vector>

namespace wlan::util {

/// Writes rows of mixed string/number cells to a CSV file. Quoting follows
/// RFC 4180: cells containing a comma, quote, or newline are quoted and
/// embedded quotes doubled.
class CsvWriter {
 public:
  /// Opens `path` for writing; throws std::runtime_error on failure.
  explicit CsvWriter(const std::string& path);

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Writes a header row. Usually called once, first.
  void header(std::initializer_list<std::string> names);
  void header(const std::vector<std::string>& names);

  /// Appends one row of already-formatted cells.
  void row(const std::vector<std::string>& cells);

  /// Convenience: appends one row of doubles with `precision` significant
  /// digits.
  void row_numeric(const std::vector<double>& values, int precision = 10);

  /// Flushes the underlying stream.
  void flush();

  /// Escapes one cell per RFC 4180 (exposed for testing).
  static std::string escape(const std::string& cell);

 private:
  std::ofstream out_;
};

/// Formats a double with the given number of significant digits, trimming
/// trailing zeros ("3.1400" -> "3.14", "2.0" -> "2").
std::string format_double(double v, int significant_digits = 6);

}  // namespace wlan::util
