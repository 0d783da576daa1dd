#include "util/table_printer.h"

#include <gtest/gtest.h>

namespace awmoe {
namespace {

TEST(TablePrinterTest, RendersHeaderAndRows) {
  TablePrinter table("Results");
  table.SetHeader({"Model", "AUC"});
  table.AddRow({"DNN", "0.8201"});
  table.AddRow({"AW-MoE", "0.8459"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("Results"), std::string::npos);
  EXPECT_NE(out.find("Model"), std::string::npos);
  EXPECT_NE(out.find("AW-MoE"), std::string::npos);
  EXPECT_NE(out.find("0.8459"), std::string::npos);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table;
  table.SetHeader({"A", "B"});
  table.AddRow({"long-name", "1"});
  table.AddRow({"x", "2"});
  std::string out = table.ToString();
  // Every rendered line must have equal length.
  size_t line_len = 0;
  size_t start = 0;
  while (start < out.size()) {
    size_t end = out.find('\n', start);
    if (end == std::string::npos) break;
    size_t len = end - start;
    if (line_len == 0) line_len = len;
    EXPECT_EQ(len, line_len);
    start = end + 1;
  }
}

TEST(TablePrinterTest, HandlesRaggedRows) {
  TablePrinter table;
  table.SetHeader({"A", "B", "C"});
  table.AddRow({"1"});
  table.AddRow({"1", "2", "3"});
  std::string out = table.ToString();
  EXPECT_FALSE(out.empty());
}

TEST(TablePrinterTest, EmptyTable) {
  TablePrinter table;
  EXPECT_EQ(table.ToString(), "");
  TablePrinter titled("T");
  EXPECT_EQ(titled.ToString(), "T\n");
}

}  // namespace
}  // namespace awmoe
