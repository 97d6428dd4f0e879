#include "util/logging.h"

#include <chrono>
#include <cstdio>
#include <mutex>

namespace sweb::util {

namespace {

constexpr LogLevel kThreshold = LogLevel::kWarn;
std::mutex g_emit_mutex;
thread_local std::string t_context;

// Process-wide monotonic epoch, fixed the first time anything logs (or asks
// for the uptime) so all threads share one time base.
[[nodiscard]] std::chrono::steady_clock::time_point log_epoch() noexcept {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

[[nodiscard]] const char* level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

}  // namespace

LogLevel log_level() noexcept { return kThreshold; }

void set_thread_log_context(std::string context) {
  t_context = std::move(context);
}

double log_uptime_seconds() noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       log_epoch())
      .count();
}

void log_line(LogLevel level, const std::string& message) {
  if (log_level() > level) return;
  const double uptime = log_uptime_seconds();
  const std::lock_guard<std::mutex> lock(g_emit_mutex);
  if (t_context.empty()) {
    std::fprintf(stderr, "[%12.6f] [%s] %s\n", uptime, level_name(level),
                 message.c_str());
  } else {
    std::fprintf(stderr, "[%12.6f] [%s] (%s) %s\n", uptime,
                 level_name(level), t_context.c_str(), message.c_str());
  }
}

}  // namespace sweb::util
