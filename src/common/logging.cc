#include "src/common/logging.h"

#include <cstring>

namespace aurora {

namespace {
// Hot runs log at kWarn+, so the level check is all most call sites pay.
LogLevel g_level = LogLevel::kWarn;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "TRACE";
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO ";
    case LogLevel::kWarn:
      return "WARN ";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF  ";
  }
  return "?";
}
}  // namespace

LogLevel GetLogLevel() { return g_level; }
void SetLogLevel(LogLevel level) { g_level = level; }

namespace internal {

void LogMessage(LogLevel level, const char* file, int line,
                const std::string& message) {
  const char* base = std::strrchr(file, '/');
  base = base ? base + 1 : file;
  std::fprintf(stderr, "[%s %s:%d] %s\n", LevelName(level), base, line,
               message.c_str());
}

}  // namespace internal

}  // namespace aurora
