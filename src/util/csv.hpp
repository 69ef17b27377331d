// CSV writer the bench drivers write every figure/table row through. It
// keeps the rows it wrote, so the same cells print as the driver's console
// table (print) and each row has one write site. Every row is flushed and
// checked, so a CSV that cannot be written (a full disk, a bad mount) ends
// the driver with an exception instead of a clean exit. Drivers simulate
// before they write rows, so an interrupted driver leaves at most a
// header, and its finished jobs live in the result store
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

  /// Appends one row of already-formatted cells and flushes it; throws
  /// std::runtime_error naming the file when the stream has failed.
  void row(const std::vector<std::string>& cells);

  /// Convenience: appends one row of doubles with `precision` significant
  /// digits.
  void row_numeric(const std::vector<double>& values, int precision = 10);

  /// Renders every line written so far as a util::Table, the first (the
  /// header) as its column names: the file's cells, unescaped.
  void print(std::ostream& os) const;

  /// Escapes one cell per RFC 4180 (exposed for testing).
  static std::string escape(const std::string& cell);

 private:
  std::string path_;
  std::ofstream out_;
  std::vector<std::vector<std::string>> lines_;  // as written, for print
};

/// Formats a double with the given number of significant digits, trimming
/// trailing zeros ("3.1400" -> "3.14", "2.0" -> "2"). Defined in
/// format_double.cpp, so a binary that only names schemes
/// (exp::SchemeConfig::name) links neither CsvWriter nor util::Table.
std::string format_double(double v, int significant_digits = 6);

}  // namespace wlan::util
