// Leveled, rate-limited, thread-safe diagnostic logging.
//
// Replaces ad-hoc std::cerr writes. Usage:
//
//   NW_LOG(kWarn) << "lint: " << problem;
//   NW_LOG(kDebug) << "refinement converged after " << iter << " passes";
//
// The macro guards with one inlined relaxed load, so a disabled level
// costs a test-and-branch and never evaluates its stream arguments. Each
// call site rate-limits itself: the first kLogBurst hits always log, then
// only every kLogEvery-th does, with a "(n suppressed)" note — a hot loop
// cannot flood the sink. Lines are assembled off-lock and written under
// one mutex, so concurrent threads never interleave characters.
//
// The sink defaults to std::cerr and can be redirected (the CLI points it
// at its own error stream; tests capture it). `set_log_level` picks the
// most verbose level that still logs (default kWarn).
//
// Line format (origin segments appear only when set for the thread):
//   [HH:MM:SS.mmm] [nw:<level>] [<thread>] [conn <id>] <message>
// The wall-clock stamp and per-thread origin make one daemon log usable
// for cross-connection forensics; the `[nw:<level>]` token stays intact
// for grep.
#pragma once

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string_view>

namespace nw::obs {

enum class LogLevel : int { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3, kTrace = 4 };

[[nodiscard]] const char* to_string(LogLevel l) noexcept;

namespace detail {
extern std::atomic<int> g_log_level;
}  // namespace detail

[[nodiscard]] inline bool log_enabled(LogLevel l) noexcept {
  return static_cast<int>(l) <= detail::g_log_level.load(std::memory_order_relaxed);
}

void set_log_level(LogLevel l) noexcept;
[[nodiscard]] LogLevel log_level() noexcept;

/// Redirect the sink (nullptr restores std::cerr). The caller keeps the
/// stream alive while it is installed.
void set_log_sink(std::ostream* os) noexcept;

/// Attribute the calling thread's log lines to a daemon connection
/// (0 clears). Lines render "... [conn N] ..." while set, which is what
/// ties a slow-request warning back to the client that sent it.
void set_log_connection(std::uint64_t id) noexcept;

namespace detail {

constexpr std::uint64_t kLogBurst = 8;   ///< first hits per site always log
constexpr std::uint64_t kLogEvery = 64;  ///< afterwards: every n-th hit

/// Per-call-site rate-limit state (one function-local static per NW_LOG).
struct LogSite {
  std::atomic<std::uint64_t> hits{0};

  /// >= 0: write this hit, noting that many suppressed since the last
  /// write; < 0: drop it.
  [[nodiscard]] std::int64_t admit() noexcept {
    const std::uint64_t n = hits.fetch_add(1, std::memory_order_relaxed);
    if (n < kLogBurst) return 0;
    const std::uint64_t k = n - kLogBurst;
    if (k % kLogEvery == 0) {
      return k == 0 ? 0 : static_cast<std::int64_t>(kLogEvery - 1);
    }
    return -1;
  }
};

/// One log line, buffered locally and flushed atomically on destruction.
/// A rate-suppressed line still evaluates its stream arguments but writes
/// nothing (the site is already hot, so the cost is bounded and rare).
class LogLine {
 public:
  LogLine(LogLevel level, LogSite& site) : level_(level), suppressed_(site.admit()) {}
  ~LogLine();
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  [[nodiscard]] std::ostream& stream() noexcept { return os_; }

 private:
  LogLevel level_;
  std::int64_t suppressed_;  ///< < 0: drop the line entirely
  std::ostringstream os_;
};

}  // namespace detail
}  // namespace nw::obs

/// NW_LOG(kWarn) << ...;  — levels are members of nw::obs::LogLevel.
/// Expands to a statement; the else-branches keep it one statement so it
/// nests inside unbraced ifs like a function call would.
#define NW_LOG(level)                                                        \
  if (!::nw::obs::log_enabled(::nw::obs::LogLevel::level)) {                 \
  } else if (static ::nw::obs::detail::LogSite nw_log_site_; false) {        \
  } else                                                                     \
    ::nw::obs::detail::LogLine(::nw::obs::LogLevel::level, nw_log_site_).stream()
