// Unit and property tests for tlp: fork-join pool, scheduling policies,
// reductions, barriers, exception propagation, thread ids.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "threading/backoff.hpp"
#include "threading/barrier.hpp"
#include "threading/schedule.hpp"
#include "threading/thread_id.hpp"
#include "threading/thread_pool.hpp"

namespace {

TEST(StaticPartition, CoversRangeExactlyOnce) {
  for (const long n : {0L, 1L, 7L, 100L, 101L}) {
    for (const int threads : {1, 2, 3, 8}) {
      std::vector<int> hits(static_cast<std::size_t>(n), 0);
      for (int t = 0; t < threads; ++t) {
        const auto r = tlp::static_partition(0, n, t, threads);
        for (long i = r.begin; i < r.end; ++i) hits[static_cast<std::size_t>(i)]++;
      }
      for (const int h : hits) EXPECT_EQ(h, 1) << "n=" << n << " p=" << threads;
    }
  }
}

TEST(StaticPartition, BalancedWithinOne) {
  const auto r0 = tlp::static_partition(0, 10, 0, 3);
  const auto r1 = tlp::static_partition(0, 10, 1, 3);
  const auto r2 = tlp::static_partition(0, 10, 2, 3);
  EXPECT_EQ(r0.end - r0.begin, 4);
  EXPECT_EQ(r1.end - r1.begin, 3);
  EXPECT_EQ(r2.end - r2.begin, 3);
}

TEST(ThreadPool, ParallelRegionRunsEveryThreadOnce) {
  tlp::ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(4);
  pool.parallel_region([&](int tid, int n) {
    EXPECT_EQ(n, 4);
    counts[static_cast<std::size_t>(tid)]++;
  });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, RegionReusableAcrossGenerations) {
  tlp::ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int rep = 0; rep < 50; ++rep) {
    pool.parallel_region([&](int, int) { total++; });
  }
  EXPECT_EQ(total.load(), 150);
}

class ScheduleTest : public ::testing::TestWithParam<
                         std::tuple<tlp::Schedule, int, long>> {};

TEST_P(ScheduleTest, ParallelForTouchesEachIndexOnce) {
  const auto [sched, threads, n] = GetParam();
  tlp::ThreadPool pool(threads);
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  tlp::ForOptions opts;
  opts.schedule = sched;
  pool.parallel_for(
      0, n,
      [&](long lo, long hi) {
        for (long i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
      },
      opts);
  for (long i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST_P(ScheduleTest, ReduceMatchesSerialSum) {
  const auto [sched, threads, n] = GetParam();
  tlp::ThreadPool pool(threads);
  tlp::ForOptions opts;
  opts.schedule = sched;
  const double sum = pool.parallel_reduce<double>(
      0, n, 0.0,
      [](long lo, long hi) {
        double acc = 0;
        for (long i = lo; i < hi; ++i) acc += static_cast<double>(i);
        return acc;
      },
      [](double a, double b) { return a + b; }, opts);
  EXPECT_DOUBLE_EQ(sum, static_cast<double>(n) * (n - 1) / 2.0);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, ScheduleTest,
    ::testing::Combine(::testing::Values(tlp::Schedule::kStatic,
                                         tlp::Schedule::kDynamic,
                                         tlp::Schedule::kGuided),
                       ::testing::Values(1, 2, 7),
                       ::testing::Values(0L, 1L, 1000L)));

TEST(ThreadPool, StaticReduceIsDeterministic) {
  tlp::ThreadPool pool(6);
  std::vector<double> values(10000);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 1.0 / static_cast<double>(i + 1);
  }
  const auto run = [&] {
    return pool.parallel_reduce<double>(
        0, static_cast<long>(values.size()), 0.0,
        [&](long lo, long hi) {
          double acc = 0;
          for (long i = lo; i < hi; ++i) acc += values[static_cast<std::size_t>(i)];
          return acc;
        },
        [](double a, double b) { return a + b; });
  };
  const double first = run();
  for (int rep = 0; rep < 10; ++rep) EXPECT_EQ(run(), first);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  tlp::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_region([](int tid, int) {
    if (tid == 2) throw tl::Error("worker boom");
  }),
               tl::Error);
  // Pool must stay usable after the failure.
  std::atomic<int> count{0};
  pool.parallel_region([&](int, int) { count++; });
  EXPECT_EQ(count.load(), 4);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  tlp::ThreadPool pool(4);
  bool touched = false;
  pool.parallel_for(5, 5, [&](long, long) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  tlp::ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  pool.parallel_region([&](int tid, int n) {
    EXPECT_EQ(tid, 0);
    EXPECT_EQ(n, 1);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPool, NestedPoolsWork) {
  // Hybrid backends run a pool per minimpi rank: emulate two sibling pools
  // driven from worker threads of an outer pool.
  tlp::ThreadPool outer(2);
  std::atomic<long> total{0};
  outer.parallel_region([&](int, int) {
    tlp::ThreadPool inner(3);
    inner.parallel_for(0, 300, [&](long lo, long hi) {
      total += hi - lo;
    });
  });
  EXPECT_EQ(total.load(), 600);
}

TEST(ThreadPool, DefaultThreadsPositive) {
  EXPECT_GE(tlp::default_threads(), 1);
}

TEST(Barrier, SynchronizesPhases) {
  constexpr int kThreads = 6;
  tlp::Barrier barrier(kThreads);
  std::atomic<int> phase_counter{0};
  tlp::ThreadPool pool(kThreads);
  pool.parallel_region([&](int, int) {
    for (int phase = 0; phase < 5; ++phase) {
      phase_counter++;
      barrier.arrive_and_wait();
      // After the barrier every participant of this phase has incremented.
      EXPECT_GE(phase_counter.load(), (phase + 1) * kThreads);
      barrier.arrive_and_wait();
    }
  });
  EXPECT_EQ(phase_counter.load(), 5 * kThreads);
}

TEST(Barrier, RejectsNonPositiveCount) {
  EXPECT_THROW(tlp::Barrier(0), tl::Error);
}

TEST(ThreadId, StablePerThreadAndDistinct) {
  const int mine = tlp::current_thread_id();
  EXPECT_EQ(tlp::current_thread_id(), mine);
  std::set<int> ids;
  std::mutex m;
  tlp::ThreadPool pool(8);
  pool.parallel_region([&](int, int) {
    std::lock_guard<std::mutex> lock(m);
    ids.insert(tlp::current_thread_id());
  });
  EXPECT_EQ(ids.size(), 8u);
}

// --- fork-join / barrier stress --------------------------------------------
//
// These cases hammer the wakeup and generation paths that a spin-barrier
// rewrite can get wrong: a lost wakeup deadlocks a region (caught by the
// suite timeout), generation reuse lets a thread slip through a phase early
// (caught by the per-phase counters), and a torn reduction loses updates
// (caught by the exact sums).

TEST(ThreadPoolStress, RapidForkJoinGenerations) {
  // Thousands of tiny regions back to back: each region must run every
  // thread exactly once, even when workers race between spinning, parking
  // and re-arming across generations.
  tlp::ThreadPool pool(4);
  std::atomic<long> total{0};
  constexpr int kRegions = 4000;
  for (int rep = 0; rep < kRegions; ++rep) {
    std::atomic<int> here{0};
    pool.parallel_region([&](int, int) {
      here++;
      total++;
    });
    ASSERT_EQ(here.load(), 4) << "region " << rep << " lost a thread";
  }
  EXPECT_EQ(total.load(), 4L * kRegions);
}

TEST(ThreadPoolStress, MixedSizeReductionsStaySane) {
  // Alternate reductions over wildly different range sizes (empty, one
  // element, odd primes, large) and schedules; every result is checked
  // against the closed form, so a partial-combine bug or a reused partial
  // slot from a previous generation shows up as a wrong sum.
  tlp::ThreadPool pool(5);
  const long sizes[] = {0, 1, 7, 97, 1000, 3, 12345, 2, 64};
  const tlp::Schedule schedules[] = {tlp::Schedule::kStatic,
                                     tlp::Schedule::kDynamic,
                                     tlp::Schedule::kGuided};
  for (int rep = 0; rep < 300; ++rep) {
    const long n = sizes[rep % (sizeof(sizes) / sizeof(sizes[0]))];
    tlp::ForOptions opts;
    opts.schedule = schedules[rep % 3];
    const double sum = pool.parallel_reduce<double>(
        0, n, 0.0,
        [](long lo, long hi) {
          double acc = 0;
          for (long i = lo; i < hi; ++i) acc += static_cast<double>(i);
          return acc;
        },
        [](double a, double b) { return a + b; }, opts);
    ASSERT_DOUBLE_EQ(sum, static_cast<double>(n) * (n - 1) / 2.0)
        << "rep " << rep << " n " << n;
  }
}

TEST(ThreadPoolStress, ForkJoinInterleavedWithReductions) {
  // Interleave plain regions, work-shared loops and reductions, so the
  // generation counter advances through differently-shaped jobs; any
  // cross-generation state leak corrupts one of the exact checks.
  tlp::ThreadPool pool(3);
  std::vector<int> hits(512, 0);
  for (int rep = 0; rep < 200; ++rep) {
    std::atomic<int> ran{0};
    pool.parallel_region([&](int, int) { ran++; });
    ASSERT_EQ(ran.load(), 3);

    std::fill(hits.begin(), hits.end(), 0);
    pool.parallel_for(0, static_cast<long>(hits.size()), [&](long lo, long hi) {
      for (long i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
    });
    for (const int h : hits) ASSERT_EQ(h, 1);

    const long n = 100 + rep;
    const double sum = pool.parallel_reduce<double>(
        0, n, 0.0,
        [](long lo, long hi) {
          double acc = 0;
          for (long i = lo; i < hi; ++i) acc += static_cast<double>(i);
          return acc;
        },
        [](double a, double b) { return a + b; });
    ASSERT_DOUBLE_EQ(sum, static_cast<double>(n) * (n - 1) / 2.0);
  }
}

TEST(BarrierStress, ManyPhasesNoSlipThrough) {
  // A thread that passes the barrier before everyone arrived (generation
  // reuse) would observe a phase counter below the full count.
  constexpr int kThreads = 4;
  constexpr int kPhases = 2000;
  tlp::Barrier barrier(kThreads);
  std::atomic<int> arrived{0};
  tlp::ThreadPool pool(kThreads);
  pool.parallel_region([&](int, int) {
    for (int phase = 0; phase < kPhases; ++phase) {
      arrived++;
      barrier.arrive_and_wait();
      ASSERT_GE(arrived.load(), (phase + 1) * kThreads);
      barrier.arrive_and_wait();
    }
  });
  EXPECT_EQ(arrived.load(), kPhases * kThreads);
}

TEST(BarrierStress, TwoBarriersPingPong) {
  // Classic double-buffer handoff: writer phase / reader phase alternating
  // through two barriers; a reordering across either barrier corrupts the
  // checked value.
  constexpr int kThreads = 3;
  tlp::Barrier a(kThreads), b(kThreads);
  tlp::ThreadPool pool(kThreads);
  int shared = 0;
  pool.parallel_region([&](int tid, int) {
    for (int round = 0; round < 500; ++round) {
      if (tid == round % kThreads) shared = round;
      a.arrive_and_wait();
      ASSERT_EQ(shared, round);
      b.arrive_and_wait();
    }
  });
}

TEST(ThreadPoolStress, ReductionSlotsServeEveryPartialType) {
  // The pool's per-thread reduction slots are reused by reductions of
  // different partial types; each must start from its own identity.
  struct Quad {
    double a, b, c, d;
  };
  tlp::ThreadPool pool(3);
  for (int rep = 0; rep < 50; ++rep) {
    const long n = 10 + rep;
    const double sum = pool.parallel_reduce<double>(
        0, n, 0.0, [](long lo, long hi) { return double(hi - lo); },
        [](double x, double y) { return x + y; });
    ASSERT_EQ(sum, static_cast<double>(n));
    const Quad quad = pool.parallel_reduce<Quad>(
        0, n, Quad{1.0, 0.0, 0.0, 0.0},
        [](long lo, long hi) {
          return Quad{1.0, double(hi - lo), double(lo), double(hi)};
        },
        [](Quad x, const Quad& y) {
          return Quad{x.a * y.a, x.b + y.b, x.c + y.c, x.d + y.d};
        });
    ASSERT_EQ(quad.a, 1.0);
    ASSERT_EQ(quad.b, static_cast<double>(n));
  }
}

// Busy-wait `gap` without sleeping, so short gaps stay short.
void idle_for(std::chrono::microseconds gap) {
  const auto until = std::chrono::steady_clock::now() + gap;
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(ThreadPoolStress, GappedDispatchReachesEveryWaitPhase) {
  // Idle gaps before each region and inside each barrier phase leave the
  // waiting threads in every phase of their wait: still checking (none,
  // ~1 us), at the end of the pause budget (~20 us), yielding (~200 us)
  // and, for pool workers, parked (~2 ms).  Every region must still run
  // every thread exactly once, and no barrier phase may let a thread through
  // before all have arrived.
  using std::chrono::microseconds;
  constexpr int kThreads = 4;
  constexpr int kPhases = 6;
  const microseconds gaps[] = {microseconds(0), microseconds(1),
                               microseconds(20), microseconds(200),
                               microseconds(2000)};
  tlp::ThreadPool pool(kThreads);
  tlp::Barrier barrier(kThreads);
  for (int round = 0; round < 3; ++round) {
    for (const microseconds gap : gaps) {
      idle_for(gap);
      std::vector<std::atomic<int>> runs(kThreads);
      std::atomic<int> arrived{0};
      std::atomic<int> slipped{0};
      pool.parallel_region([&](int tid, int n) {
        runs[static_cast<std::size_t>(tid)]++;
        for (int phase = 0; phase < kPhases; ++phase) {
          // One thread lags by the gap; the others wait that long.
          if (tid == phase % n) idle_for(gap);
          arrived++;
          barrier.arrive_and_wait();
          if (arrived.load() < (phase + 1) * n) slipped++;
          barrier.arrive_and_wait();
        }
      });
      for (const auto& r : runs) {
        ASSERT_EQ(r.load(), 1) << "gap " << gap.count() << " us";
      }
      ASSERT_EQ(slipped.load(), 0) << "gap " << gap.count() << " us";
      ASSERT_EQ(arrived.load(), kPhases * kThreads);
    }
  }
}

TEST(Backoff, BoundedBurstsThenYields) {
  tlp::Backoff backoff;
  long spent = 0;
  while (backoff.pauses() < tlp::Backoff::kSpinBudget) {
    ASSERT_EQ(backoff.yields(), 0) << "yielded after " << spent << " pauses";
    backoff.pause();
    const long burst = backoff.pauses() - spent;
    ASSERT_GE(burst, 1);
    ASSERT_LE(burst, tlp::Backoff::kMaxBurst);
    spent = backoff.pauses();
  }
  EXPECT_EQ(backoff.pauses(), tlp::Backoff::kSpinBudget);
  EXPECT_EQ(backoff.yields(), 0);
  for (long round = 1; round <= 3; ++round) {
    backoff.pause();
    EXPECT_EQ(backoff.pauses(), tlp::Backoff::kSpinBudget);
    EXPECT_EQ(backoff.yields(), round);
  }
}

TEST(ThreadPool, GuidedChunksShrink) {
  tlp::ThreadPool pool(4);
  std::vector<long> chunk_sizes;
  std::mutex m;
  tlp::ForOptions opts;
  opts.schedule = tlp::Schedule::kGuided;
  pool.parallel_for(
      0, 10000,
      [&](long lo, long hi) {
        std::lock_guard<std::mutex> lock(m);
        chunk_sizes.push_back(hi - lo);
      },
      opts);
  ASSERT_GT(chunk_sizes.size(), 1u);
  const long covered = std::accumulate(chunk_sizes.begin(), chunk_sizes.end(), 0L);
  EXPECT_EQ(covered, 10000);
}

}  // namespace
