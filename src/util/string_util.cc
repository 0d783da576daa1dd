#include "util/string_util.h"

#include <cstdarg>
#include <cstdio>

namespace awmoe {

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  if (needed < 0) {
    va_end(args_copy);
    return {};
  }
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, format, args_copy);
  va_end(args_copy);
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string FormatDouble(double value, int digits) {
  return StrFormat("%.*f", digits, value);
}

std::string FormatPValue(double p) {
  if (p < 1e-20) p = 1e-20;
  return StrFormat("%.2E", p);
}

}  // namespace awmoe
