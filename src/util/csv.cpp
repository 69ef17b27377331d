#include "util/csv.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace wlan::util {

CsvWriter::CsvWriter(const std::string& path) : out_(path) {
  if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
}

void CsvWriter::header(std::initializer_list<std::string> names) {
  header(std::vector<std::string>(names));
}

void CsvWriter::header(const std::vector<std::string>& names) { row(names); }

void CsvWriter::row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out_ << ',';
    out_ << escape(cells[i]);
  }
  out_ << '\n';
}

void CsvWriter::row_numeric(const std::vector<double>& values, int precision) {
  std::vector<std::string> cells;
  cells.reserve(values.size());
  for (double v : values) cells.push_back(format_double(v, precision));
  row(cells);
}

void CsvWriter::flush() { out_.flush(); }

std::string CsvWriter::escape(const std::string& cell) {
  const bool needs_quote =
      cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quote) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

std::string format_double(double v, int significant_digits) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  std::ostringstream os;
  os.precision(significant_digits);
  os << v;
  return os.str();
}

}  // namespace wlan::util
