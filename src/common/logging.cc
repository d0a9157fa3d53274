#include "common/logging.h"

namespace lodviz {
namespace internal_logging {

namespace {
/// Messages below this level are discarded.
constexpr LogLevel kMinLevel = LogLevel::kWarning;

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

LogMessage::LogMessage(LogLevel level, const char* file, int line, bool fatal)
    : level_(level), fatal_(fatal), enabled_(fatal || level >= kMinLevel) {
  if (enabled_) {
    stream_ << "[" << LevelName(level_) << " " << file << ":" << line << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) {
    std::cerr << stream_.str() << std::endl;
  }
  if (fatal_) {
    std::abort();
  }
}

}  // namespace internal_logging
}  // namespace lodviz
