#include "util/string_util.h"

#include <gtest/gtest.h>

namespace awmoe {
namespace {

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d items, %.2f rate", 5, 0.25), "5 items, 0.25 rate");
  EXPECT_EQ(StrFormat("%s", "plain"), "plain");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StrFormatTest, LongOutput) {
  std::string long_str(500, 'x');
  EXPECT_EQ(StrFormat("%s", long_str.c_str()).size(), 500u);
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-flag", "--"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("", "a"));
}

TEST(FormatDoubleTest, RoundsToDigits) {
  EXPECT_EQ(FormatDouble(0.84591, 4), "0.8459");
  EXPECT_EQ(FormatDouble(0.5, 2), "0.50");
  EXPECT_EQ(FormatDouble(-1.2345, 1), "-1.2");
}

TEST(FormatPValueTest, ScientificStyle) {
  EXPECT_EQ(FormatPValue(1.33e-15), "1.33E-15");
  EXPECT_EQ(FormatPValue(0.0267), "2.67E-02");
}

TEST(FormatPValueTest, ClampsAtPaperFloor) {
  // The paper reports values below 1e-20 as "1.00E-20".
  EXPECT_EQ(FormatPValue(1e-30), "1.00E-20");
  EXPECT_EQ(FormatPValue(0.0), "1.00E-20");
}

}  // namespace
}  // namespace awmoe
