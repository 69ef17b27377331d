#include "util/csv.hpp"

#include <stdexcept>

#include "util/table.hpp"

namespace wlan::util {

CsvWriter::CsvWriter(const std::string& path) : path_(path), out_(path) {
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
  // A failed write may surface only when the buffer reaches the file
  // (/dev/full opens and buffers fine), hence the flush before the check.
  out_.flush();
  if (!out_) throw std::runtime_error("CsvWriter: cannot write " + path_);
  lines_.push_back(cells);
}

void CsvWriter::row_numeric(const std::vector<double>& values, int precision) {
  std::vector<std::string> cells;
  cells.reserve(values.size());
  for (double v : values) cells.push_back(format_double(v, precision));
  row(cells);
}

void CsvWriter::print(std::ostream& os) const {
  if (lines_.empty()) return;
  Table table(lines_.front());
  for (std::size_t i = 1; i < lines_.size(); ++i) table.add_row(lines_[i]);
  table.print(os);
}

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

}  // namespace wlan::util
