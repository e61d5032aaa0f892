// Per-subsystem memory accounting: named byte accounts and a tracking STL
// allocator.
//
// The observability stack answers "where does time go" down to span level;
// this header makes it answer "where does memory go" with the same rigor.
// Every subsystem that owns a scale-proportional structure charges a named
// account — either for real (its containers allocate through TrackedAlloc,
// so current/peak/allocs/frees are exact) or through a size-accounting hook
// (the owner charges an estimate via ScopedMemCharge / delta charges where
// swapping the allocator would be invasive). The account table is the
// "memory" section of the stats JSON (session::memory_json), the #memory
// dashboard panel, the CLI --mem-report table, and the per-account
// peak-bytes metrics the perf baseline gates on.
//
// Overhead contract: accounting is on by default and costs a few relaxed
// atomic operations per allocation on tracked containers (the peak update
// is a short CAS loop, contended only while the high-water mark moves).
// When disabled (MemTracker::set_enabled(false)) every charge site reduces
// to one relaxed load and a branch — the same budget as a disarmed trace
// span. Toggling while tracked containers are live skews current/alloc
// counts (charges and releases stop pairing up); the intended use is a
// process-lifetime switch, and the analysis Result is byte-identical with
// tracking on or off either way (property-tested in test_memtrack.cpp).
//
// Thread-safety: accounts are lock-free atomics, safe to charge from any
// thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <type_traits>
#include <vector>

namespace nw::obs {

/// The fixed account table, one entry per byte-owning subsystem. Fixed at
/// compile time so charge sites index an array instead of hashing names,
/// and so every stats export lists the same accounts in the same order.
enum class MemAccountId : unsigned {
  kDesign = 0,       ///< netlist: nets/instances/pins + name indexes
  kParasitics,       ///< RC networks + coupling caps + incidence lists
  kSta,              ///< sta::Result: pin/net timing, endpoints
  kAnalysisContext,  ///< context slabs: adjacency, levels, loads, endpoints
  kKernelBuffers,    ///< context slabs: per-pair operands, switching windows
  kResult,           ///< noise::Result + provenance held by the caller
  kSessionCache,     ///< session LRU: retained Results + STA per slot
  kUndoJournal,      ///< session undo journal entries + captured state
  kTraceBuffers,     ///< tracer event buffers + profiler folded aggregate
  kDaemonQueues,     ///< serving request-line queues (daemon and stdio)
  kCount,
};

inline constexpr std::size_t kMemAccountCount =
    static_cast<std::size_t>(MemAccountId::kCount);

/// Stable snake_case account name ("design", "kernel_buffers", ...) — the
/// JSON key, the mem_<name>_peak_bytes metric stem, and the table label.
[[nodiscard]] const char* to_string(MemAccountId id) noexcept;

namespace detail {
extern std::atomic<bool> g_mem_enabled;
}

/// The charge sites' fast guard: one relaxed load, inlined.
[[nodiscard]] inline bool memtrack_enabled() noexcept {
  return detail::g_mem_enabled.load(std::memory_order_relaxed);
}

/// One account: live bytes, high-water mark, and charge/release event
/// counts. All operations are lock-free; peak uses the same CAS-maximum
/// idiom as Histogram's min/max tracking.
class MemAccount {
 public:
  void charge(std::size_t bytes) noexcept {
    if (!memtrack_enabled()) return;
    const auto delta = static_cast<std::int64_t>(bytes);
    const std::int64_t now =
        current_.fetch_add(delta, std::memory_order_relaxed) + delta;
    allocs_.fetch_add(1, std::memory_order_relaxed);
    update_peak(now);
  }

  void release(std::size_t bytes) noexcept {
    if (!memtrack_enabled()) return;
    current_.fetch_sub(static_cast<std::int64_t>(bytes), std::memory_order_relaxed);
    frees_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Sampled owners (trace buffers: the tracer is global, so the tracker
  /// samples it at snapshot time) set an absolute level; the delta is
  /// applied as one charge or release so peak stays the true high-water
  /// mark. Last-writer-wins under concurrent adjusts — fine for the
  /// single logical owner each sampled account has.
  void adjust_to(std::size_t bytes) noexcept {
    if (!memtrack_enabled()) return;
    const auto target = static_cast<std::int64_t>(bytes);
    const std::int64_t cur = current_.load(std::memory_order_relaxed);
    if (target > cur) {
      charge(static_cast<std::size_t>(target - cur));
    } else if (target < cur) {
      release(static_cast<std::size_t>(cur - target));
    }
  }

  /// Live bytes, clamped at 0 (a release outrunning its charge across an
  /// enable toggle can dip the raw counter negative).
  [[nodiscard]] std::uint64_t current() const noexcept {
    const std::int64_t v = current_.load(std::memory_order_relaxed);
    return v > 0 ? static_cast<std::uint64_t>(v) : 0;
  }
  [[nodiscard]] std::uint64_t peak() const noexcept {
    const std::int64_t p = peak_.load(std::memory_order_relaxed);
    const std::int64_t c = current_.load(std::memory_order_relaxed);
    const std::int64_t v = p > c ? p : c;
    return v > 0 ? static_cast<std::uint64_t>(v) : 0;
  }
  [[nodiscard]] std::uint64_t allocs() const noexcept {
    return allocs_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t frees() const noexcept {
    return frees_.load(std::memory_order_relaxed);
  }

 private:
  void update_peak(std::int64_t now) noexcept {
    std::int64_t seen = peak_.load(std::memory_order_relaxed);
    while (now > seen &&
           !peak_.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::int64_t> current_{0};
  std::atomic<std::int64_t> peak_{0};
  std::atomic<std::uint64_t> allocs_{0};
  std::atomic<std::uint64_t> frees_{0};
};

/// One account's values at snapshot time (plain data for renderers).
struct MemAccountSample {
  const char* name = "";
  std::uint64_t current_bytes = 0;
  std::uint64_t peak_bytes = 0;
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
};

/// Process-wide account table (static-only interface, like Tracer).
class MemTracker {
 public:
  MemTracker() = delete;

  /// Master switch; on by default. Off reduces every charge site to a
  /// relaxed load + branch (see the header contract on toggling).
  static void set_enabled(bool on) noexcept;
  [[nodiscard]] static bool enabled() noexcept { return memtrack_enabled(); }

  [[nodiscard]] static MemAccount& account(MemAccountId id) noexcept;

  /// All accounts in enum order. Refreshes the sampled accounts (trace
  /// buffers from the tracer/profiler) first, so exports are current.
  [[nodiscard]] static std::vector<MemAccountSample> snapshot();

  /// Sum of account currents.
  [[nodiscard]] static std::uint64_t total_current() noexcept;
};

/// The --mem-report table: one row per account plus RSS, aligned columns.
void write_memory_table(std::ostream& os);

/// Size-accounting hook for owners where swapping the allocator is
/// invasive: charges an estimated byte count on construction, releases the
/// same count on destruction — so current returns to zero at teardown by
/// construction. Movable so owners can store it next to the owned object.
class ScopedMemCharge {
 public:
  ScopedMemCharge() = default;
  ScopedMemCharge(MemAccountId id, std::size_t bytes)
      : account_(&MemTracker::account(id)), bytes_(bytes) {
    account_->charge(bytes_);
  }
  ~ScopedMemCharge() { reset(); }

  ScopedMemCharge(ScopedMemCharge&& other) noexcept
      : account_(other.account_), bytes_(other.bytes_) {
    other.account_ = nullptr;
    other.bytes_ = 0;
  }
  ScopedMemCharge& operator=(ScopedMemCharge&& other) noexcept {
    if (this != &other) {
      reset();
      account_ = other.account_;
      bytes_ = other.bytes_;
      other.account_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }
  ScopedMemCharge(const ScopedMemCharge&) = delete;
  ScopedMemCharge& operator=(const ScopedMemCharge&) = delete;

  /// Release now (idempotent).
  void reset() noexcept {
    if (account_ != nullptr) account_->release(bytes_);
    account_ = nullptr;
    bytes_ = 0;
  }

  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }

 private:
  MemAccount* account_ = nullptr;
  std::size_t bytes_ = 0;
};

/// STL-compatible tracking allocator bound to an account at compile time.
/// Stateless (all instances equal), so containers using it stay as cheap to
/// move/swap as with std::allocator; each allocation charges exactly
/// n * sizeof(T) and the matching deallocation releases it.
template <class T, MemAccountId Id>
struct TrackedAlloc {
  using value_type = T;
  using is_always_equal = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;

  TrackedAlloc() = default;
  template <class U>
  TrackedAlloc(const TrackedAlloc<U, Id>&) noexcept {}  // NOLINT(runtime/explicit)

  template <class U>
  struct rebind {
    using other = TrackedAlloc<U, Id>;
  };

  [[nodiscard]] T* allocate(std::size_t n) {
    T* p = std::allocator<T>{}.allocate(n);
    MemTracker::account(Id).charge(n * sizeof(T));
    return p;
  }
  void deallocate(T* p, std::size_t n) noexcept {
    MemTracker::account(Id).release(n * sizeof(T));
    std::allocator<T>{}.deallocate(p, n);
  }

  friend bool operator==(const TrackedAlloc&, const TrackedAlloc&) noexcept {
    return true;
  }
};

}  // namespace nw::obs
