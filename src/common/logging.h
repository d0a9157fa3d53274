#ifndef LODVIZ_COMMON_LOGGING_H_
#define LODVIZ_COMMON_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>

// LODVIZ_CHECK / LODVIZ_CHECK_OK / LODVIZ_DCHECK live in common/check.h
// (included here so existing users of the macros keep compiling; the old
// if-based form defined in this header had a dangling-else hazard and only
// accepted Status).
#include "common/check.h"  // IWYU pragma: export

namespace lodviz {
namespace internal_logging {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Accumulates one log line and flushes it (with level prefix) on
/// destruction. `fatal` aborts the process after flushing.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line, bool fatal = false);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  bool fatal_;
  bool enabled_;
  std::ostringstream stream_;
};

}  // namespace internal_logging
}  // namespace lodviz

#define LODVIZ_LOG_DEBUG()                                      \
  ::lodviz::internal_logging::LogMessage(                       \
      ::lodviz::internal_logging::LogLevel::kDebug, __FILE__, __LINE__)
#define LODVIZ_LOG_INFO()                                       \
  ::lodviz::internal_logging::LogMessage(                       \
      ::lodviz::internal_logging::LogLevel::kInfo, __FILE__, __LINE__)
#define LODVIZ_LOG_WARN()                                       \
  ::lodviz::internal_logging::LogMessage(                       \
      ::lodviz::internal_logging::LogLevel::kWarning, __FILE__, __LINE__)
#define LODVIZ_LOG_ERROR()                                      \
  ::lodviz::internal_logging::LogMessage(                       \
      ::lodviz::internal_logging::LogLevel::kError, __FILE__, __LINE__)

#endif  // LODVIZ_COMMON_LOGGING_H_
