#include "obs/tracer.hpp"

#include <algorithm>

#include "obs/log.hpp"
#include "obs/profile.hpp"
#include <chrono>
#include <cstdio>
#include <iomanip>
#include <memory>
#include <mutex>
#include <ostream>

namespace nw::obs {

namespace {

/// Per-thread event buffer. Registered once per thread and kept alive by
/// the registry after the thread exits, so worker spans survive pool
/// teardown until the next clear().
struct Buffer {
  int tid = 0;
  std::string thread_name;
  std::mutex mutex;  ///< uncontended in steady state (owner thread appends)
  std::vector<TraceEvent> events;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<Buffer>> buffers;
  int next_tid = 0;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: threads may record at exit
  return *r;
}

Buffer& local_buffer() {
  thread_local std::shared_ptr<Buffer> tl_buffer = [] {
    auto buf = std::make_shared<Buffer>();
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    buf->tid = reg.next_tid++;
    reg.buffers.push_back(buf);
    return buf;
  }();
  return *tl_buffer;
}

std::chrono::steady_clock::time_point epoch() {
  static const auto t0 = std::chrono::steady_clock::now();
  return t0;
}

/// Counter samples arrive from one low-rate sampler thread, so a single
/// mutex-guarded vector (leaked like the registry) is plenty.
struct CounterStore {
  std::mutex mutex;
  std::vector<CounterEvent> events;
};

CounterStore& counter_store() {
  static CounterStore* s = new CounterStore;
  return *s;
}

}  // namespace

const char* to_string(SpanKind k) noexcept {
  switch (k) {
    case SpanKind::kPhase: return "phase";
    case SpanKind::kLevel: return "level";
    case SpanKind::kIteration: return "iteration";
    case SpanKind::kTask: return "task";
    case SpanKind::kRequest: return "request";
  }
  return "?";
}

namespace detail {

std::atomic<unsigned> g_span_mask{0};

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch())
      .count();
}

void record(TraceEvent&& ev) {
  Buffer& buf = local_buffer();
  ev.tid = buf.tid;
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.events.push_back(std::move(ev));
}

}  // namespace detail

void Tracer::enable() {
  (void)epoch();  // pin the epoch before the first span
  detail::g_span_mask.fetch_or(detail::kSpanTraceBit, std::memory_order_relaxed);
}

void Tracer::disable() {
  detail::g_span_mask.fetch_and(~detail::kSpanTraceBit, std::memory_order_relaxed);
}

void Tracer::clear() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& buf : reg.buffers) {
    std::lock_guard<std::mutex> blk(buf->mutex);
    buf->events.clear();
  }
  CounterStore& cs = counter_store();
  std::lock_guard<std::mutex> clk(cs.mutex);
  cs.events.clear();
}

void Tracer::counter(std::string_view name, double value) {
  if (!trace_enabled()) return;
  CounterEvent ev;
  ev.name = std::string(name);
  ev.value = value;
  ev.ts_ns = detail::now_ns();
  CounterStore& cs = counter_store();
  std::lock_guard<std::mutex> lock(cs.mutex);
  cs.events.push_back(std::move(ev));
}

std::vector<CounterEvent> Tracer::counters() {
  CounterStore& cs = counter_store();
  std::lock_guard<std::mutex> lock(cs.mutex);
  return cs.events;
}

void Tracer::set_thread_name(std::string name) {
  // One call labels every consumer: the trace track, the profiler's
  // folded-stack root frame, and the log-line origin segment.
  profile_set_thread_name(name);
  set_log_thread_name(name);
  Buffer& buf = local_buffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.thread_name = std::move(name);
}

std::size_t Tracer::buffered_bytes() {
  std::size_t total = 0;
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& buf : reg.buffers) {
    std::lock_guard<std::mutex> blk(buf->mutex);
    total += sizeof(Buffer) + buf->thread_name.capacity();
    total += buf->events.capacity() * sizeof(TraceEvent);
    for (const TraceEvent& ev : buf->events) {
      // Count only heap names; SSO storage is already inside sizeof above.
      if (ev.name.capacity() > sizeof(std::string)) total += ev.name.capacity();
    }
  }
  return total;
}

std::vector<TraceEvent> Tracer::events() {
  std::vector<TraceEvent> out;
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& buf : reg.buffers) {
    std::lock_guard<std::mutex> blk(buf->mutex);
    out.insert(out.end(), buf->events.begin(), buf->events.end());
  }
  std::stable_sort(out.begin(), out.end(), [](const TraceEvent& a, const TraceEvent& b) {
    return a.tid != b.tid ? a.tid < b.tid : a.start_ns < b.start_ns;
  });
  return out;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof hex, "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void Tracer::write_chrome(std::ostream& os) {
  // Collect names under the registry lock, events via the sorted snapshot.
  std::vector<std::pair<int, std::string>> thread_names;
  {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (const auto& buf : reg.buffers) {
      std::lock_guard<std::mutex> blk(buf->mutex);
      if (!buf->thread_name.empty()) thread_names.emplace_back(buf->tid, buf->thread_name);
    }
  }
  const std::vector<TraceEvent> evs = events();

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  sep();
  os << R"({"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"noisewin"}})";
  for (const auto& [tid, name] : thread_names) {
    sep();
    os << R"({"ph":"M","pid":0,"tid":)" << tid
       << R"(,"name":"thread_name","args":{"name":")" << json_escape(name) << "\"}}";
  }
  const auto flags = os.flags();
  const auto precision = os.precision();
  os << std::fixed << std::setprecision(3);
  for (const TraceEvent& ev : evs) {
    sep();
    os << R"({"ph":"X","pid":0,"tid":)" << ev.tid << R"(,"name":")"
       << json_escape(ev.name) << R"(","cat":")" << to_string(ev.kind) << R"(","ts":)"
       << static_cast<double>(ev.start_ns) / 1e3 << R"(,"dur":)"
       << static_cast<double>(ev.dur_ns) / 1e3 << "}";
  }
  // Counter samples render as value tracks. Chrome keys each track by
  // (pid, name); tid 0 keeps them grouped above the span threads.
  for (const CounterEvent& ev : Tracer::counters()) {
    sep();
    os << R"({"ph":"C","pid":0,"tid":0,"name":")" << json_escape(ev.name)
       << R"(","ts":)" << static_cast<double>(ev.ts_ns) / 1e3 << R"(,"args":{")"
       << json_escape(ev.name) << "\":" << ev.value << "}}";
  }
  os.flags(flags);
  os.precision(precision);
  os << "\n]}\n";
}

void Span::arm(std::string_view name, SpanKind kind) {
  if (profile_enabled()) {
    detail::push_frame(name);
    pushed_ = true;
  }
  traced_ = trace_enabled();
  if (!traced_ && seconds_ == nullptr) return;  // profiler-only: no clock
  if (traced_) {
    name_ = std::string(name);
    kind_ = kind;
  }
  start_ns_ = detail::now_ns();
}

void Span::finish() {
  const std::int64_t dur_ns = detail::now_ns() - start_ns_;
  if (seconds_ != nullptr) *seconds_ += static_cast<double>(dur_ns) * 1e-9;
  // Tracing may have been disabled mid-span; still record for balance —
  // a dangling open span would break per-thread nesting.
  if (!traced_) return;
  TraceEvent ev;
  ev.name = std::move(name_);
  ev.kind = kind_;
  ev.start_ns = start_ns_;
  ev.dur_ns = dur_ns;
  detail::record(std::move(ev));
}

}  // namespace nw::obs
