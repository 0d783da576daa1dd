#ifndef AWMOE_UTIL_STRING_UTIL_H_
#define AWMOE_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>

namespace awmoe {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// True if `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Formats a double with `digits` places after the decimal point.
std::string FormatDouble(double value, int digits);

/// Formats a p-value in the paper's scientific style, e.g. "1.33E-15";
/// values below 1e-20 are clamped to "1.00E-20" as in the paper's tables.
std::string FormatPValue(double p);

}  // namespace awmoe

#endif  // AWMOE_UTIL_STRING_UTIL_H_
