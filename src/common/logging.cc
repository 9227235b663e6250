#include "common/logging.h"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <mutex>

namespace daakg {
namespace {

// Serializes log line emission across threads.
std::mutex& LogMutex() {
  static std::mutex* mutex = new std::mutex;
  return *mutex;
}

const char* LevelPrefix(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kFatal:
      return "F";
  }
  return "?";
}

// Strips directories from a path so log lines stay short.
const char* Basename(const char* path) {
  const char* base = path;
  for (const char* p = path; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  return base;
}

}  // namespace

LogLevel GetLogLevel() { return LogLevel::kInfo; }

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  stream_ << "[" << LevelPrefix(level) << " " << Basename(file) << ":" << line
          << "] ";
}

LogMessage::~LogMessage() {
  {
    std::lock_guard<std::mutex> lock(LogMutex());
    std::cerr << stream_.str() << std::endl;
  }
  if (level_ == LogLevel::kFatal) {
    std::abort();
  }
}

}  // namespace internal_logging
}  // namespace daakg
