// A small fixed-size thread pool for data-parallel loops.
//
// The analyzer's hot phases (per-victim glitch estimation, per-level gate
// propagation, endpoint checks) are shared-nothing over an index range, so
// the only primitive needed is a blocking `parallel_for(n, chunk, fn)`:
// workers claim half-open chunks of [0, n) from an atomic cursor and the
// calling thread participates, so an Executor with `thread_count() == t`
// uses exactly t threads (t-1 pooled workers + the caller).
//
// Determinism contract: parallel_for itself guarantees nothing about
// execution order — callers make parallel results reproducible by writing
// into pre-sized, index-addressed slots and folding them in index order
// afterwards. Every stage of noise::analyze follows it, which is what
// makes analysis output bit-identical across thread counts.
//
// Observability: the labeled overloads emit one obs::Span per executed
// chunk (category "task") when tracing is enabled, so load imbalance
// inside a region shows up as per-thread tracks in the trace; pool workers
// name their tracks "worker <i>". Utilization accounting (off by default)
// times every chunk for the per-worker and per-region aggregates. There is
// no per-chunk observer callback: the chunk counts live in the utilization
// snapshot. With tracing and utilization off, the chunk path is the body
// plus one relaxed load.
//
// Error contract: the first exception thrown by any chunk is captured and
// rethrown on the calling thread after all workers have quiesced; the
// remaining chunks still run (no cancellation — chunks are short).
//
// Nested use of the *same* executor from inside a chunk would deadlock a
// fixed pool, so it throws std::logic_error instead (the nested-use guard).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace nw::util {

/// Per-worker totals across every instrumented region (worker 0 = the
/// calling thread). `idle_s` is derived at snapshot time: the time spent
/// inside regions while other workers still had chunks.
struct WorkerStats {
  int worker = 0;
  double busy_s = 0.0;
  double idle_s = 0.0;
  std::uint64_t chunks = 0;
};

/// Accumulated stats for one labeled parallel_for region (summed over
/// every invocation with that label).
struct RegionStats {
  std::string label;
  std::uint64_t invocations = 0;
  std::uint64_t chunks = 0;  ///< executed chunks (== the executor_tasks share)
  std::uint64_t items = 0;   ///< sum of n over invocations
  double wall_s = 0.0;       ///< coordinator-measured region wall time
  double busy_s = 0.0;       ///< sum of every worker's chunk time
  double max_busy_s = 0.0;   ///< sum over invocations of the busiest worker
  double wait_s = 0.0;       ///< sum of first-chunk start latencies (wakeup cost)

  /// Imbalance gauge: the busiest worker's share relative to a perfectly
  /// balanced split (1.0 = balanced, `threads` = one worker did it all).
  [[nodiscard]] double imbalance(int threads) const noexcept {
    if (busy_s <= 0.0 || threads <= 0) return 1.0;
    return max_busy_s * static_cast<double>(threads) / busy_s;
  }
};

/// Everything the executor measured about itself: the "executor" section
/// of stats-JSON schema v3. All timing — nondeterministic by nature; the
/// deterministic chunk *counts* are also in the executor_tasks counter.
struct UtilizationSnapshot {
  bool enabled = false;
  int threads = 1;
  double wall_s = 0.0;  ///< total wall time inside instrumented regions
  std::vector<WorkerStats> workers;
  std::vector<RegionStats> regions;  ///< first-use order
};

class Executor {
 public:
  /// `threads` <= 0 resolves to std::thread::hardware_concurrency();
  /// 1 is the serial fallback (no pool threads are created at all).
  explicit Executor(int threads = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Resolved parallelism (pooled workers + the calling thread).
  [[nodiscard]] int thread_count() const noexcept { return thread_count_; }

  /// Turn on utilization accounting: per-worker busy time and chunk
  /// counts, per-region wall/busy/max-busy/first-chunk-wait aggregates.
  /// Costs two clock reads per chunk. Set between regions.
  void enable_utilization(bool on);

  /// Copy of everything measured so far. Call between regions (the same
  /// single-submitter contract as parallel_for). Worker idle time is
  /// derived here as (region wall total − busy).
  [[nodiscard]] UtilizationSnapshot utilization() const;

  /// Invoke `fn(begin, end)` over disjoint chunks of at most `chunk`
  /// indices covering [0, n). Blocks until every chunk has run; rethrows
  /// the first chunk exception. `chunk == 0` is treated as 1.
  /// Single-submitter: at most one thread may be inside parallel_for of a
  /// given Executor at a time (distinct executors may nest).
  void parallel_for(std::size_t n, std::size_t chunk,
                    const std::function<void(std::size_t, std::size_t)>& fn) {
    parallel_for(nullptr, n, chunk, fn);
  }

  /// Same, with a trace label: each chunk records an obs::Span named
  /// `label` when tracing is enabled. `label` must outlive the call.
  void parallel_for(const char* label, std::size_t n, std::size_t chunk,
                    const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  struct Pool;  // hides <thread>/<condition_variable> from this header
  friend struct Pool;

  /// Per-region, per-worker scratch (reset by begin_region, folded into
  /// the accumulators by end_region). `first_s` is the delay from region
  /// start to the worker's first chunk (-1 = never got one).
  struct WorkerSlot {
    double busy_s = 0.0;
    std::uint64_t chunks = 0;
    double first_s = -1.0;
  };

  void run_serial(const char* label, std::size_t n, std::size_t chunk,
                  const std::function<void(std::size_t, std::size_t)>& fn);
  /// One chunk, wrapped in span/utilization instrumentation.
  void run_chunk(const char* label, std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t, std::size_t)>& fn);
  void dispatch(const char* label, std::size_t n, std::size_t chunk,
                const std::function<void(std::size_t, std::size_t)>& fn);
  void begin_region();
  void end_region(const char* label, std::size_t n);

  int thread_count_ = 1;
  Pool* pool_ = nullptr;  // null when thread_count_ == 1

  // Utilization accounting (coordinator-owned; worker slots are written by
  // their owning thread during a region and read after the join barrier).
  // tl_slot_ points at the current thread's slot of the executor whose
  // region it is running (saved/restored across nested executors).
  static thread_local WorkerSlot* tl_slot_;
  bool util_enabled_ = false;
  std::vector<WorkerSlot> slots_;        // size thread_count_, index 0 = caller
  std::vector<WorkerStats> worker_totals_;
  std::vector<RegionStats> regions_;
  double util_wall_s_ = 0.0;
  std::chrono::steady_clock::time_point region_t0_;
};

}  // namespace nw::util
