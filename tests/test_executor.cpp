// util::Executor: chunking coverage, exception propagation, nested-use
// guard, and the ordered map-reduce determinism contract.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/executor.hpp"

namespace nw::util {
namespace {

TEST(Executor, ResolvesThreadCounts) {
  EXPECT_GE(Executor(0).thread_count(), 1);  // 0 = hardware_concurrency
  EXPECT_EQ(Executor(1).thread_count(), 1);
  EXPECT_EQ(Executor(4).thread_count(), 4);
  EXPECT_GE(Executor(-3).thread_count(), 1);
}

TEST(Executor, EmptyRangeNeverInvokes) {
  Executor ex(4);
  std::atomic<int> calls{0};
  ex.parallel_for(0, 8, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(Executor, CoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 4}) {
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
      Executor ex(threads);
      constexpr std::size_t n = 1000;
      std::vector<std::atomic<int>> hits(n);
      ex.parallel_for(n, chunk, [&](std::size_t begin, std::size_t end) {
        ASSERT_LE(begin, end);
        ASSERT_LE(end, n);
        ASSERT_LE(end - begin, chunk);
        for (std::size_t i = begin; i < end; ++i) ++hits[i];
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " chunk=" << chunk
                                     << " i=" << i;
      }
    }
  }
}

TEST(Executor, ChunkLargerThanNStillCovers) {
  Executor ex(4);
  std::atomic<std::size_t> sum{0};
  std::atomic<int> calls{0};
  ex.parallel_for(5, 1000, [&](std::size_t begin, std::size_t end) {
    ++calls;
    for (std::size_t i = begin; i < end; ++i) sum += i;
  });
  EXPECT_EQ(calls.load(), 1);  // one chunk covers everything
  EXPECT_EQ(sum.load(), 0u + 1 + 2 + 3 + 4);
}

TEST(Executor, ChunkZeroIsTreatedAsOne) {
  Executor ex(2);
  std::atomic<std::size_t> covered{0};
  ex.parallel_for(7, 0, [&](std::size_t begin, std::size_t end) {
    covered += end - begin;
  });
  EXPECT_EQ(covered.load(), 7u);
}

TEST(Executor, ExceptionPropagatesToCaller) {
  for (const int threads : {1, 4}) {
    Executor ex(threads);
    EXPECT_THROW(ex.parallel_for(100, 1,
                                 [&](std::size_t begin, std::size_t) {
                                   if (begin == 37) throw std::runtime_error("boom");
                                 }),
                 std::runtime_error)
        << "threads=" << threads;
    // The pool must survive a throwing job and run the next one cleanly.
    std::atomic<std::size_t> covered{0};
    ex.parallel_for(50, 4, [&](std::size_t begin, std::size_t end) {
      covered += end - begin;
    });
    EXPECT_EQ(covered.load(), 50u);
  }
}

TEST(Executor, NestedUseOfSameExecutorThrows) {
  for (const int threads : {1, 4}) {
    Executor ex(threads);
    EXPECT_THROW(ex.parallel_for(8, 1,
                                 [&](std::size_t, std::size_t) {
                                   ex.parallel_for(
                                       2, 1, [](std::size_t, std::size_t) {});
                                 }),
                 std::logic_error)
        << "threads=" << threads;
  }
}

TEST(Executor, DistinctExecutorsMayNest) {
  // A serial outer loop driving a pooled inner executor: only one thread
  // submits to `inner` at a time (parallel_for is single-submitter).
  Executor outer(1);
  Executor inner(2);
  std::atomic<std::size_t> covered{0};
  outer.parallel_for(4, 1, [&](std::size_t, std::size_t) {
    inner.parallel_for(3, 1,
                       [&](std::size_t begin, std::size_t end) { covered += end - begin; });
  });
  EXPECT_EQ(covered.load(), 12u);
}

// ---------------------------------------------------------------------------
// Utilization accounting (the stats-JSON v3 "executor" section)
// ---------------------------------------------------------------------------

TEST(ExecutorUtilization, DisabledByDefault) {
  Executor ex(2);
  ex.parallel_for("region", 10, 1, [](std::size_t, std::size_t) {});
  const UtilizationSnapshot snap = ex.utilization();
  EXPECT_FALSE(snap.enabled);
  EXPECT_TRUE(snap.regions.empty());
  EXPECT_EQ(snap.wall_s, 0.0);
}

TEST(ExecutorUtilization, AccountsChunksItemsAndBusyIdleSums) {
  Executor ex(2);
  ex.enable_utilization(true);
  constexpr std::size_t n = 16;
  ex.parallel_for("work", n, 2, [](std::size_t, std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  });
  ex.parallel_for("work", n, 2, [](std::size_t, std::size_t) {});

  const UtilizationSnapshot snap = ex.utilization();
  EXPECT_TRUE(snap.enabled);
  EXPECT_EQ(snap.threads, 2);
  EXPECT_GT(snap.wall_s, 0.0);

  ASSERT_EQ(snap.regions.size(), 1u);
  const RegionStats& reg = snap.regions[0];
  EXPECT_EQ(reg.label, "work");
  EXPECT_EQ(reg.invocations, 2u);
  EXPECT_EQ(reg.chunks, 2 * n / 2);
  EXPECT_EQ(reg.items, 2 * n);
  EXPECT_GT(reg.busy_s, 0.0);
  EXPECT_LE(reg.max_busy_s, reg.busy_s + 1e-12);
  // Busy time happens inside the region, so it can never exceed its wall.
  EXPECT_LE(reg.busy_s, 2.0 * reg.wall_s + 1e-9);  // 2 workers
  EXPECT_GE(reg.imbalance(snap.threads), 1.0 - 1e-9);

  // Every chunk is owned by exactly one worker; idle is derived as the
  // region wall the worker did not spend in chunks.
  ASSERT_EQ(snap.workers.size(), 2u);
  std::uint64_t chunks = 0;
  for (const WorkerStats& w : snap.workers) {
    chunks += w.chunks;
    EXPECT_GE(w.busy_s, 0.0);
    EXPECT_GE(w.idle_s, 0.0);
    // idle = max(0, wall - busy), so busy + idle recovers at least the
    // wall time and idle alone never exceeds it.
    EXPECT_GE(w.busy_s + w.idle_s, snap.wall_s - 1e-12);
    EXPECT_LE(w.idle_s, snap.wall_s + 1e-12);
  }
  EXPECT_EQ(chunks, reg.chunks);
}

TEST(ExecutorUtilization, SkewedRegionShowsImbalance) {
  // One heavy chunk among trivial ones: the busiest worker holds nearly
  // all the busy time, so the gauge approaches `threads`.
  Executor ex(2);
  ex.enable_utilization(true);
  ex.parallel_for("skewed", 4, 1, [](std::size_t begin, std::size_t) {
    if (begin == 0) std::this_thread::sleep_for(std::chrono::milliseconds(40));
  });
  const UtilizationSnapshot snap = ex.utilization();
  ASSERT_EQ(snap.regions.size(), 1u);
  EXPECT_GT(snap.regions[0].imbalance(snap.threads), 1.5)
      << "busy " << snap.regions[0].busy_s << " max "
      << snap.regions[0].max_busy_s;
}

TEST(ExecutorUtilization, SerialExecutorAttributesEverythingToWorkerZero) {
  Executor ex(1);
  ex.enable_utilization(true);
  ex.parallel_for("serial", 8, 3, [](std::size_t, std::size_t) {});
  const UtilizationSnapshot snap = ex.utilization();
  EXPECT_EQ(snap.threads, 1);
  ASSERT_EQ(snap.workers.size(), 1u);
  EXPECT_EQ(snap.workers[0].worker, 0);
  EXPECT_EQ(snap.workers[0].chunks, 3u);  // ceil(8 / 3)
  ASSERT_EQ(snap.regions.size(), 1u);
  EXPECT_EQ(snap.regions[0].chunks, 3u);
  EXPECT_EQ(snap.regions[0].items, 8u);
  EXPECT_DOUBLE_EQ(snap.regions[0].imbalance(1), 1.0);
}

TEST(ExecutorUtilization, UnlabeledRegionsAreStillAccounted) {
  Executor ex(2);
  ex.enable_utilization(true);
  ex.parallel_for(6, 1, [](std::size_t, std::size_t) {});
  const UtilizationSnapshot snap = ex.utilization();
  ASSERT_EQ(snap.regions.size(), 1u);
  EXPECT_FALSE(snap.regions[0].label.empty());  // placeholder label
  EXPECT_EQ(snap.regions[0].chunks, 6u);
}

}  // namespace
}  // namespace nw::util
