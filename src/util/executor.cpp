#include "util/executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/tracer.hpp"

namespace nw::util {

namespace {

/// The executor whose parallel_for the current thread is executing a chunk
/// of (worker or caller). Used to detect nested use of the same pool.
thread_local const Executor* tl_running = nullptr;

struct RunningGuard {
  const Executor* prev;
  explicit RunningGuard(const Executor* e) : prev(tl_running) { tl_running = e; }
  ~RunningGuard() { tl_running = prev; }
};

}  // namespace

thread_local Executor::WorkerSlot* Executor::tl_slot_ = nullptr;

struct Executor::Pool {
  std::vector<std::thread> workers;

  std::mutex mutex;
  std::condition_variable work_ready;
  std::condition_variable work_done;

  // Current job. Generation increments per parallel_for; workers idle on
  // the condition variable between jobs (no busy spin).
  std::uint64_t generation = 0;
  const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
  const char* label = nullptr;
  std::size_t n = 0;
  std::size_t chunk = 1;
  std::atomic<std::size_t> cursor{0};
  int running = 0;  ///< workers still inside the current job
  bool stop = false;

  std::exception_ptr first_error;

  void work(Executor* owner, int slot) {
    RunningGuard guard(owner);
    WorkerSlot* const prev_slot = Executor::tl_slot_;
    Executor::tl_slot_ =
        owner->util_enabled_ ? &owner->slots_[static_cast<std::size_t>(slot)]
                             : nullptr;
    const auto& body = *fn;
    for (;;) {
      const std::size_t begin = cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) break;
      const std::size_t end = std::min(n, begin + chunk);
      try {
        owner->run_chunk(label, begin, end, body);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
    Executor::tl_slot_ = prev_slot;
  }

  void worker_loop(Executor* owner, int index) {
    obs::Tracer::set_thread_name("worker " + std::to_string(index));
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_ready.wait(lock, [&] { return stop || generation != seen; });
        if (stop) return;
        seen = generation;
      }
      work(owner, index);
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (--running == 0) work_done.notify_all();
      }
    }
  }
};

Executor::Executor(int threads) {
  if (threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 0 ? static_cast<int>(hw) : 1;
  }
  thread_count_ = threads;
  if (thread_count_ == 1) return;  // serial fallback: no pool at all
  pool_ = new Pool;
  pool_->workers.reserve(static_cast<std::size_t>(thread_count_) - 1);
  for (int i = 0; i < thread_count_ - 1; ++i) {
    pool_->workers.emplace_back([this, i] { pool_->worker_loop(this, i + 1); });
  }
}

Executor::~Executor() {
  if (!pool_) return;
  {
    std::lock_guard<std::mutex> lock(pool_->mutex);
    pool_->stop = true;
  }
  pool_->work_ready.notify_all();
  for (auto& w : pool_->workers) w.join();
  delete pool_;
}

void Executor::run_chunk(const char* label, std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& fn) {
  // Fast path: no tracing/profiling, no utilization — just the body.
  const bool traced = label != nullptr && obs::spans_active();
  WorkerSlot* const slot = tl_slot_;
  if (!traced && slot == nullptr) {
    fn(begin, end);
    return;
  }
  std::optional<obs::Span> span;
  if (traced) span.emplace(label, obs::SpanKind::kTask);
  if (slot == nullptr) {
    fn(begin, end);
    return;
  }
  // Utilization needs the chunk's start relative to the region, not only
  // its duration, so it keeps its own clock pair.
  const auto t0 = std::chrono::steady_clock::now();
  fn(begin, end);
  slot->busy_s +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (slot->first_s < 0.0) {
    slot->first_s = std::chrono::duration<double>(t0 - region_t0_).count();
  }
  ++slot->chunks;
}

void Executor::run_serial(const char* label, std::size_t n, std::size_t chunk,
                          const std::function<void(std::size_t, std::size_t)>& fn) {
  RunningGuard guard(this);
  WorkerSlot* const prev_slot = tl_slot_;
  tl_slot_ = util_enabled_ ? &slots_[0] : nullptr;
  try {
    for (std::size_t begin = 0; begin < n; begin += chunk) {
      run_chunk(label, begin, std::min(n, begin + chunk), fn);
    }
  } catch (...) {
    tl_slot_ = prev_slot;
    throw;
  }
  tl_slot_ = prev_slot;
}

void Executor::begin_region() {
  for (WorkerSlot& s : slots_) s = WorkerSlot{};
  region_t0_ = std::chrono::steady_clock::now();
}

void Executor::end_region(const char* label, std::size_t n) {
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - region_t0_)
          .count();
  const char* const key = label != nullptr ? label : "(unlabeled)";
  RegionStats* region = nullptr;
  for (RegionStats& r : regions_) {
    if (r.label == key) {
      region = &r;
      break;
    }
  }
  if (region == nullptr) {
    regions_.emplace_back();
    region = &regions_.back();
    region->label = key;
  }
  double busy_sum = 0.0;
  double busy_max = 0.0;
  double wait_sum = 0.0;
  std::uint64_t chunk_sum = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const WorkerSlot& s = slots_[i];
    busy_sum += s.busy_s;
    busy_max = std::max(busy_max, s.busy_s);
    chunk_sum += s.chunks;
    if (s.first_s >= 0.0) wait_sum += s.first_s;
    worker_totals_[i].busy_s += s.busy_s;
    worker_totals_[i].chunks += s.chunks;
  }
  ++region->invocations;
  region->items += n;
  region->wall_s += wall;
  region->busy_s += busy_sum;
  region->max_busy_s += busy_max;
  region->wait_s += wait_sum;
  region->chunks += chunk_sum;
  util_wall_s_ += wall;
}

void Executor::enable_utilization(bool on) {
  util_enabled_ = on;
  if (on && slots_.empty()) {
    slots_.resize(static_cast<std::size_t>(thread_count_));
    worker_totals_.resize(static_cast<std::size_t>(thread_count_));
    for (int i = 0; i < thread_count_; ++i) worker_totals_[static_cast<std::size_t>(i)].worker = i;
  }
}

UtilizationSnapshot Executor::utilization() const {
  UtilizationSnapshot snap;
  snap.enabled = util_enabled_;
  snap.threads = thread_count_;
  snap.wall_s = util_wall_s_;
  snap.workers = worker_totals_;
  for (WorkerStats& w : snap.workers) {
    w.idle_s = std::max(0.0, util_wall_s_ - w.busy_s);
  }
  snap.regions = regions_;
  return snap;
}

void Executor::dispatch(const char* label, std::size_t n, std::size_t chunk,
                        const std::function<void(std::size_t, std::size_t)>& fn) {
  // One chunk (or no pool): nothing to distribute.
  if (!pool_ || n <= chunk) {
    run_serial(label, n, chunk, fn);
    return;
  }

  {
    std::lock_guard<std::mutex> lock(pool_->mutex);
    pool_->fn = &fn;
    pool_->label = label;
    pool_->n = n;
    pool_->chunk = chunk;
    pool_->cursor.store(0, std::memory_order_relaxed);
    pool_->running = static_cast<int>(pool_->workers.size());
    pool_->first_error = nullptr;
    ++pool_->generation;
  }
  pool_->work_ready.notify_all();

  pool_->work(this, 0);  // the caller is thread 0

  std::unique_lock<std::mutex> lock(pool_->mutex);
  pool_->work_done.wait(lock, [&] { return pool_->running == 0; });
  pool_->fn = nullptr;
  if (pool_->first_error) {
    std::exception_ptr err = pool_->first_error;
    pool_->first_error = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void Executor::parallel_for(const char* label, std::size_t n, std::size_t chunk,
                            const std::function<void(std::size_t, std::size_t)>& fn) {
  if (tl_running == this) {
    throw std::logic_error(
        "Executor::parallel_for: nested use of the same executor");
  }
  if (n == 0) return;
  if (chunk == 0) chunk = 1;
  if (!util_enabled_) {
    dispatch(label, n, chunk, fn);
    return;
  }
  begin_region();
  try {
    dispatch(label, n, chunk, fn);
  } catch (...) {
    end_region(label, n);  // keep accumulators consistent across rethrow
    throw;
  }
  end_region(label, n);
}

}  // namespace nw::util
