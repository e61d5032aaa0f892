// Span-based tracing with Chrome trace-event (chrome://tracing / Perfetto)
// JSON output.
//
// A Span is an RAII scope marker: construction stamps a start time,
// destruction appends one complete event to a thread-local buffer. A
// thread's buffer is registered globally at its first event and, once it
// holds events, outlives the thread, so one flush after a run collects
// every thread's spans into per-thread tracks — which is what makes load
// imbalance inside parallel regions directly visible. A thread that exits
// having recorded nothing leaves no buffer behind.
//
// A Span is also the program's one timing primitive: given a duration sink
// (`double* seconds`), it adds its elapsed wall time to `*seconds`, and a
// traced span records its event from that same clock pair — so a phase
// gauge and the trace agree exactly.
//
// Overhead contract: tracing is off by default and every span site guards
// itself with `trace_enabled()` — a single inlined relaxed atomic load — so
// the disabled cost of a span without a sink is a test-and-branch per site
// (DESIGN.md §4.6 budgets the whole subsystem at <= 2% when disabled). A
// span with a sink always reads the clock at each end, traced or not. When
// tracing is enabled, a span costs two steady_clock reads plus one
// buffered append under an uncontended per-thread mutex; when profiling is
// enabled, the same two reads plus a fold into the thread's call tree.
//
// Threading contract: spans may be opened/closed on any thread; flushing
// (`events()` / `write_chrome()` / `clear()`) is safe at any time but is
// meant to run between analyses, when no spans are in flight.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace nw::obs {

/// Event category (the "cat" field of the trace-event JSON).
enum class SpanKind : std::uint8_t {
  kPhase,      ///< analyzer pipeline stage (estimate/propagate/endpoints)
  kLevel,      ///< one propagation level inside the propagate stage
  kIteration,  ///< one refinement pass of the analysis loop
  kTask,       ///< one executor chunk (per-thread work item)
  kRequest,    ///< one protocol command handled by the session server
};

[[nodiscard]] const char* to_string(SpanKind k) noexcept;

/// One completed span, in tracer-relative nanoseconds.
struct TraceEvent {
  std::string name;
  SpanKind kind = SpanKind::kPhase;
  int tid = 0;  ///< tracer-assigned dense thread id (0 = first recording thread)
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
};

/// One counter sample (Chrome trace phase "C"): a named scalar at a point
/// in time. Rendered as a track alongside the span tracks, so queue depth
/// and active-analysis counts line up with the requests that caused them.
struct CounterEvent {
  std::string name;
  double value = 0.0;
  std::int64_t ts_ns = 0;
};

namespace detail {
/// One consumer-enable mask shared by every span site: bit 0 = the tracer
/// (record completed events), bit 1 = the profiler (fold each span's self
/// time into its thread's call tree, obs/profile.hpp). A single relaxed
/// load keeps the disabled span cost at one test-and-branch regardless of
/// how many consumers exist.
inline constexpr unsigned kSpanTraceBit = 1u;
inline constexpr unsigned kSpanProfileBit = 2u;
extern std::atomic<unsigned> g_span_mask;
[[nodiscard]] std::int64_t now_ns() noexcept;
void record(TraceEvent&& ev);
/// The calling thread's name (Tracer::set_thread_name; empty until set).
[[nodiscard]] const std::string& thread_name() noexcept;
// Call-tree maintenance, defined in profile.cpp: push at arm, pop with the
// span's duration at destruction, rename when the thread is (re)named.
void push_frame(std::string_view name);
void pop_frame(std::int64_t dur_ns);
void rename_frame_root(std::string_view name);
}  // namespace detail

/// The span sites' fast guard: one relaxed load, inlined.
[[nodiscard]] inline bool trace_enabled() noexcept {
  return (detail::g_span_mask.load(std::memory_order_relaxed) &
          detail::kSpanTraceBit) != 0;
}

/// True while the profiler (obs/profile.hpp) is running.
[[nodiscard]] inline bool profile_enabled() noexcept {
  return (detail::g_span_mask.load(std::memory_order_relaxed) &
          detail::kSpanProfileBit) != 0;
}

/// True when any span consumer (tracer or profiler) is active — the guard
/// for span sites with dynamically built names ("level 3", "iteration 2"),
/// which skip even the name formatting when nobody is listening.
[[nodiscard]] inline bool spans_active() noexcept {
  return detail::g_span_mask.load(std::memory_order_relaxed) != 0;
}

/// Process-wide tracer control (static-only interface).
class Tracer {
 public:
  Tracer() = delete;

  static void enable();
  static void disable();
  /// Drop every recorded event, and the buffers of threads that exited.
  static void clear();

  /// Snapshot of all recorded events, ordered by (tid, start).
  [[nodiscard]] static std::vector<TraceEvent> events();

  /// Record one counter sample at "now". No-op while tracing is disabled
  /// (same guard as spans). Safe from any thread; the expected caller is
  /// a low-rate sampler (a few Hz), so the shared store is one mutex.
  static void counter(std::string_view name, double value);

  /// Snapshot of all recorded counter samples, in record order.
  [[nodiscard]] static std::vector<CounterEvent> counters();

  /// Chrome trace-event JSON: {"traceEvents":[...]} with complete ("X")
  /// events in microseconds plus thread_name metadata — loads directly in
  /// chrome://tracing and Perfetto.
  static void write_chrome(std::ostream& os);

  /// Label the calling thread (e.g. "worker 3"): its trace track, its
  /// profiler root frame and its log-line origin.
  static void set_thread_name(std::string name);

  /// Approximate bytes held by the recorded-event buffers across every
  /// thread (capacity-based, so it reflects actual allocations). Feeds the
  /// `trace_buffer_bytes` resource gauge.
  [[nodiscard]] static std::size_t buffered_bytes();
};

/// RAII span. Without a sink it does nothing (beyond the enabled check)
/// when both the tracer and the profiler are off. With a sink it always
/// times its scope and adds the elapsed seconds to `*seconds` at
/// destruction; a traced span's event duration is that same interval. When
/// the profiler is on, construction pushes the span name onto the calling
/// thread's call tree, and destruction folds that same interval, less the
/// intervals of the spans it enclosed, into the stack as self time.
class Span {
 public:
  explicit Span(std::string_view name, SpanKind kind = SpanKind::kPhase,
                double* seconds = nullptr)
      : seconds_(seconds) {
    if (seconds_ != nullptr || spans_active()) arm(name, kind);
  }
  ~Span() {
    if (start_ns_ >= 0) finish();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void arm(std::string_view name, SpanKind kind);
  void finish();

  std::string name_;
  double* seconds_;             ///< duration sink (nullptr = none)
  SpanKind kind_ = SpanKind::kPhase;
  bool traced_ = false;         ///< records an event at destruction
  bool folded_ = false;         ///< frame pushed for the profiler at arm time
  std::int64_t start_ns_ = -1;  ///< -1 = not timing (no consumer, no sink)
};

/// JSON string escaping: the program's one escaper, shared by the trace
/// writer and session::Json::dump (every other JSON document).
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace nw::obs
