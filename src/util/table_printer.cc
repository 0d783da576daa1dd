#include "util/table_printer.h"

#include <algorithm>
#include <iostream>
#include <sstream>

namespace awmoe {

TablePrinter::TablePrinter(std::string title) : title_(std::move(title)) {}

void TablePrinter::SetHeader(std::vector<std::string> header) {
  header_ = std::move(header);
}

void TablePrinter::AddRow(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

std::string TablePrinter::ToString() const {
  size_t num_cols = header_.size();
  for (const auto& row : rows_) num_cols = std::max(num_cols, row.size());
  if (num_cols == 0) return title_.empty() ? "" : title_ + "\n";

  std::vector<size_t> widths(num_cols, 0);
  auto update_widths = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  };
  update_widths(header_);
  for (const auto& row : rows_) update_widths(row);

  auto render_rule = [&](std::ostringstream& os) {
    os << '+';
    for (size_t w : widths) os << std::string(w + 2, '-') << '+';
    os << '\n';
  };
  auto render_row = [&](std::ostringstream& os,
                        const std::vector<std::string>& row) {
    os << '|';
    for (size_t i = 0; i < num_cols; ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string();
      os << ' ' << cell << std::string(widths[i] - cell.size() + 1, ' ')
         << '|';
    }
    os << '\n';
  };

  std::ostringstream os;
  if (!title_.empty()) os << title_ << '\n';
  render_rule(os);
  if (!header_.empty()) {
    render_row(os, header_);
    render_rule(os);
  }
  for (const auto& row : rows_) render_row(os, row);
  render_rule(os);
  return os.str();
}

void TablePrinter::Print() const { std::cout << ToString() << std::flush; }

}  // namespace awmoe
