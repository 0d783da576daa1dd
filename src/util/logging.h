#ifndef AWMOE_UTIL_LOGGING_H_
#define AWMOE_UTIL_LOGGING_H_

#include <iostream>
#include <sstream>
#include <string>

namespace awmoe {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

namespace internal_log {

/// One log statement; flushes "<LEVEL> <message>\n" to stderr on destruction
/// if the statement's level is kInfo or above.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& value) {
    if (enabled_) stream_ << value;
    return *this;
  }

 private:
  bool enabled_;
  std::ostringstream stream_;
};

}  // namespace internal_log
}  // namespace awmoe

#define AWMOE_LOG(level)                                  \
  ::awmoe::internal_log::LogMessage(                      \
      ::awmoe::LogLevel::k##level, __FILE__, __LINE__)

#endif  // AWMOE_UTIL_LOGGING_H_
