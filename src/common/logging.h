#ifndef DAAKG_COMMON_LOGGING_H_
#define DAAKG_COMMON_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace daakg {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kFatal = 4 };

// Minimum log level (kInfo); messages below it are dropped.
LogLevel GetLogLevel();

namespace internal_logging {

// Accumulates one log line and flushes it (with level prefix and source
// location) on destruction. FATAL messages abort the process.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

// Swallows a streamed expression when the log level is disabled.
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal_logging
}  // namespace daakg

#define DAAKG_LOG_INTERNAL(level) \
  ::daakg::internal_logging::LogMessage(level, __FILE__, __LINE__).stream()

#define LOG_DEBUG                                             \
  if (::daakg::GetLogLevel() > ::daakg::LogLevel::kDebug) {   \
  } else                                                      \
    DAAKG_LOG_INTERNAL(::daakg::LogLevel::kDebug)
#define LOG_INFO                                              \
  if (::daakg::GetLogLevel() > ::daakg::LogLevel::kInfo) {    \
  } else                                                      \
    DAAKG_LOG_INTERNAL(::daakg::LogLevel::kInfo)
#define LOG_WARNING                                           \
  if (::daakg::GetLogLevel() > ::daakg::LogLevel::kWarning) { \
  } else                                                      \
    DAAKG_LOG_INTERNAL(::daakg::LogLevel::kWarning)
#define LOG_ERROR DAAKG_LOG_INTERNAL(::daakg::LogLevel::kError)
#define LOG_FATAL DAAKG_LOG_INTERNAL(::daakg::LogLevel::kFatal)

// CHECK macros abort (with message) when the condition fails, in all build
// modes. Use for programmer errors / invariant violations, not user input.
#define DAAKG_CHECK(cond)                                    \
  if (cond) {                                                \
  } else                                                     \
    LOG_FATAL << "Check failed: " #cond " "

#define DAAKG_CHECK_EQ(a, b) DAAKG_CHECK((a) == (b))
#define DAAKG_CHECK_NE(a, b) DAAKG_CHECK((a) != (b))
#define DAAKG_CHECK_LT(a, b) DAAKG_CHECK((a) < (b))
#define DAAKG_CHECK_LE(a, b) DAAKG_CHECK((a) <= (b))
#define DAAKG_CHECK_GT(a, b) DAAKG_CHECK((a) > (b))
#define DAAKG_CHECK_GE(a, b) DAAKG_CHECK((a) >= (b))

#endif  // DAAKG_COMMON_LOGGING_H_
