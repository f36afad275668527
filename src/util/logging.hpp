// Minimal leveled logger for protocol tracing.
//
// The RTDS node state machine can emit a per-message trace (used by the
// fig1_protocol report, `rtds_exp --report=fig1_protocol`, to reproduce the
// paper's Figure 1 flow); everything defaults to silent so simulations
// stay fast.
#pragma once

#include <functional>
#include <sstream>
#include <string>

namespace rtds {

enum class LogLevel { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kOff = 4 };

/// Process-wide log sink and threshold. One simulation is single-threaded,
/// but the experiment runner fans trials across real threads, so the level
/// is an atomic and sink replacement/invocation is mutex-serialized —
/// messages from concurrent trials interleave whole, never torn. The
/// disabled fast path (the default) is a single relaxed atomic load.
class Log {
 public:
  using Sink = std::function<void(LogLevel, const std::string&)>;

  static LogLevel level();
  static void set_level(LogLevel lvl);

  /// Replace the sink (default writes to stderr). Pass nullptr to restore.
  static void set_sink(Sink sink);

  static void write(LogLevel lvl, const std::string& msg);
  static bool enabled(LogLevel lvl) { return lvl >= level(); }
};

}  // namespace rtds

#define RTDS_LOG(lvl, expr)                               \
  do {                                                    \
    if (::rtds::Log::enabled(lvl)) {                      \
      std::ostringstream rtds_log_os_;                    \
      rtds_log_os_ << expr;                               \
      ::rtds::Log::write(lvl, rtds_log_os_.str());        \
    }                                                     \
  } while (0)

#define RTDS_TRACE(expr) RTDS_LOG(::rtds::LogLevel::kTrace, expr)
#define RTDS_DEBUG(expr) RTDS_LOG(::rtds::LogLevel::kDebug, expr)
#define RTDS_INFO(expr) RTDS_LOG(::rtds::LogLevel::kInfo, expr)
#define RTDS_WARN(expr) RTDS_LOG(::rtds::LogLevel::kWarn, expr)
