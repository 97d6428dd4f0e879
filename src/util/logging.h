// Minimal leveled logging.
//
// Warnings and errors only: the simulator stays silent. Logging is
// process-global and synchronized so the real-sockets runtime can log from
// multiple threads.
#pragma once

#include <sstream>
#include <string>

namespace sweb::util {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// The global threshold (kWarn); messages below it are dropped.
[[nodiscard]] LogLevel log_level() noexcept;

/// Attaches a context label to the calling thread (e.g. "node 3"); every
/// line this thread logs is prefixed with it, so interleaved NodeServer
/// output stays attributable. Empty string clears the label.
void set_thread_log_context(std::string context);

/// Seconds since the process's logging clock started (monotonic) — the
/// timestamp every log line carries.
[[nodiscard]] double log_uptime_seconds() noexcept;

/// Emits one line to stderr:
/// "[<monotonic seconds>] [level] (context) message". Thread-safe.
void log_line(LogLevel level, const std::string& message);

namespace detail {

/// Builds the message lazily; operator<< chains into an ostringstream and the
/// destructor emits. Usage: LogStream(LogLevel::kInfo) << "x=" << x;
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;
  ~LogStream() { log_line(level_, stream_.str()); }

  template <typename T>
  LogStream& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace detail
}  // namespace sweb::util

// Level check happens before any argument formatting.
#define SWEB_LOG(level_enum)                                \
  if (::sweb::util::log_level() <= (level_enum))            \
  ::sweb::util::detail::LogStream(level_enum)

#define SWEB_TRACE() SWEB_LOG(::sweb::util::LogLevel::kTrace)
#define SWEB_DEBUG() SWEB_LOG(::sweb::util::LogLevel::kDebug)
#define SWEB_INFO() SWEB_LOG(::sweb::util::LogLevel::kInfo)
#define SWEB_WARN() SWEB_LOG(::sweb::util::LogLevel::kWarn)
#define SWEB_ERROR() SWEB_LOG(::sweb::util::LogLevel::kError)
