#include "util/logging.h"

namespace awmoe {

namespace {
/// Minimum severity that is emitted.
constexpr LogLevel kMinLevel = LogLevel::kInfo;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}
}  // namespace

namespace internal_log {

LogMessage::LogMessage(LogLevel level, const char* /*file*/, int /*line*/)
    : enabled_(level >= kMinLevel) {
  if (enabled_) stream_ << "[" << LevelName(level) << "] ";
}

LogMessage::~LogMessage() {
  if (enabled_) std::cerr << stream_.str() << "\n";
}

}  // namespace internal_log
}  // namespace awmoe
