// Minimal leveled diagnostic logging.
//
// The level is a plain process-wide variable: the simulator runs on one
// thread. Logging defaults to kWarn so tests and benches stay quiet; examples
// raise the level to narrate protocol activity.

#pragma once

#include <cstdio>
#include <sstream>
#include <string>

namespace aurora {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

/// Global minimum level; messages below it are discarded.
LogLevel GetLogLevel();
void SetLogLevel(LogLevel level);

namespace internal {

void LogMessage(LogLevel level, const char* file, int line,
                const std::string& message);

class LogStream {
 public:
  LogStream(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogStream() { LogMessage(level_, file_, line_, stream_.str()); }

  template <typename T>
  LogStream& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

struct NullStream {
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal

#define AURORA_LOG(level)                                      \
  if (::aurora::LogLevel::level < ::aurora::GetLogLevel()) {   \
  } else                                                       \
    ::aurora::internal::LogStream(::aurora::LogLevel::level,   \
                                  __FILE__, __LINE__)

#define AURORA_TRACE AURORA_LOG(kTrace)
#define AURORA_DEBUG AURORA_LOG(kDebug)
#define AURORA_INFO AURORA_LOG(kInfo)
#define AURORA_WARN AURORA_LOG(kWarn)
#define AURORA_ERROR AURORA_LOG(kError)

}  // namespace aurora
