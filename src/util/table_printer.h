#ifndef AWMOE_UTIL_TABLE_PRINTER_H_
#define AWMOE_UTIL_TABLE_PRINTER_H_

#include <string>
#include <vector>

namespace awmoe {

/// Renders aligned ASCII tables matching the paper's result tables. Used by
/// every bench binary so the console output is directly comparable to the
/// paper rows.
class TablePrinter {
 public:
  explicit TablePrinter(std::string title = "");

  void SetHeader(std::vector<std::string> header);
  void AddRow(std::vector<std::string> row);

  /// Renders the full table to a string.
  std::string ToString() const;

  /// Convenience: renders and writes to stdout.
  void Print() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace awmoe

#endif  // AWMOE_UTIL_TABLE_PRINTER_H_
