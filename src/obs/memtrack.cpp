#include "obs/memtrack.hpp"

#include <array>
#include <cstdio>
#include <ostream>

#include "obs/profile.hpp"
#include "obs/resource.hpp"
#include "obs/tracer.hpp"

namespace nw::obs {

namespace detail {
std::atomic<bool> g_mem_enabled{true};
}

namespace {

/// The process-wide account table. Function-local static so charge sites in
/// other statics (thread-local scratch, early CLI setup) never race
/// initialization order.
std::array<MemAccount, kMemAccountCount>& accounts() noexcept {
  static std::array<MemAccount, kMemAccountCount> table;
  return table;
}

/// Pull the sampled accounts up to date: the tracer and profiler are
/// process-global consumers with no single owner to charge deltas, so the
/// tracker samples their capacity-based footprints at snapshot time.
void refresh_sampled() noexcept {
  accounts()[static_cast<std::size_t>(MemAccountId::kTraceBuffers)].adjust_to(
      Tracer::buffered_bytes() + Profiler::approx_bytes());
}

}  // namespace

const char* to_string(MemAccountId id) noexcept {
  switch (id) {
    case MemAccountId::kDesign: return "design";
    case MemAccountId::kParasitics: return "parasitics";
    case MemAccountId::kSta: return "sta";
    case MemAccountId::kAnalysisContext: return "analysis_context";
    case MemAccountId::kKernelBuffers: return "kernel_buffers";
    case MemAccountId::kResult: return "result";
    case MemAccountId::kSessionCache: return "session_cache";
    case MemAccountId::kUndoJournal: return "undo_journal";
    case MemAccountId::kTraceBuffers: return "trace_buffers";
    case MemAccountId::kDaemonQueues: return "daemon_queues";
    case MemAccountId::kCount: break;
  }
  return "?";
}

void MemTracker::set_enabled(bool on) noexcept {
  detail::g_mem_enabled.store(on, std::memory_order_relaxed);
}

MemAccount& MemTracker::account(MemAccountId id) noexcept {
  return accounts()[static_cast<std::size_t>(id)];
}

std::vector<MemAccountSample> MemTracker::snapshot() {
  refresh_sampled();
  std::vector<MemAccountSample> out;
  out.reserve(kMemAccountCount);
  for (std::size_t i = 0; i < kMemAccountCount; ++i) {
    const MemAccount& a = accounts()[i];
    MemAccountSample s;
    s.name = to_string(static_cast<MemAccountId>(i));
    s.current_bytes = a.current();
    s.peak_bytes = a.peak();
    s.allocs = a.allocs();
    s.frees = a.frees();
    out.push_back(s);
  }
  return out;
}

std::uint64_t MemTracker::total_current() noexcept {
  std::uint64_t total = 0;
  for (const MemAccount& a : accounts()) total += a.current();
  return total;
}

std::uint64_t MemTracker::total_peak() noexcept {
  std::uint64_t total = 0;
  for (const MemAccount& a : accounts()) total += a.peak();
  return total;
}

void MemTracker::reset() noexcept {
  for (MemAccount& a : accounts()) a.reset();
}

namespace {

/// "12.3 MB" style rendering for the human table (JSON stays in raw bytes).
void human_bytes(char* buf, std::size_t len, double v) {
  const char* unit = "B";
  if (v >= 1024.0 * 1024.0 * 1024.0) {
    v /= 1024.0 * 1024.0 * 1024.0;
    unit = "GB";
  } else if (v >= 1024.0 * 1024.0) {
    v /= 1024.0 * 1024.0;
    unit = "MB";
  } else if (v >= 1024.0) {
    v /= 1024.0;
    unit = "KB";
  }
  std::snprintf(buf, len, "%.1f %s", v, unit);
}

}  // namespace

void write_memory_table(std::ostream& os) {
  const std::vector<MemAccountSample> snap = MemTracker::snapshot();
  const ResourceSample rs = sample_resources();
  char line[160];
  char cur[32];
  char peak[32];
  os << "memory accounts ("
     << (MemTracker::enabled() ? "tracking on" : "tracking off") << ")\n";
  std::snprintf(line, sizeof line, "  %-18s %12s %12s %10s %10s\n", "account",
                "current", "peak", "allocs", "frees");
  os << line;
  std::uint64_t total_current = 0;
  std::uint64_t total_peak = 0;
  for (const MemAccountSample& a : snap) {
    human_bytes(cur, sizeof cur, static_cast<double>(a.current_bytes));
    human_bytes(peak, sizeof peak, static_cast<double>(a.peak_bytes));
    std::snprintf(line, sizeof line, "  %-18s %12s %12s %10llu %10llu\n", a.name,
                  cur, peak, static_cast<unsigned long long>(a.allocs),
                  static_cast<unsigned long long>(a.frees));
    os << line;
    total_current += a.current_bytes;
    total_peak += a.peak_bytes;
  }
  human_bytes(cur, sizeof cur, static_cast<double>(total_current));
  human_bytes(peak, sizeof peak, static_cast<double>(total_peak));
  std::snprintf(line, sizeof line, "  %-18s %12s %12s\n", "tracked total", cur,
                peak);
  os << line;
  human_bytes(cur, sizeof cur, static_cast<double>(rs.rss_bytes));
  human_bytes(peak, sizeof peak, static_cast<double>(rs.peak_rss_bytes));
  std::snprintf(line, sizeof line, "  %-18s %12s %12s\n", "process rss", cur,
                peak);
  os << line;
}

}  // namespace nw::obs
