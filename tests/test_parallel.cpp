// Unit tests for the thread pool and parallel_for.

#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/expects.hpp"

namespace pv {
namespace {

TEST(ThreadPool, RunsSubmittedJobs) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleOnFreshPoolReturns) {
  ThreadPool pool(1);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPool, RejectsNullJob) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(nullptr), contract_error);
}

TEST(ThreadPool, SubmittedJobThrowingDoesNotKillWorkerOrDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&ran] {
      ran.fetch_add(1);
      throw std::runtime_error("job failure");
    });
  }
  pool.wait_idle();  // must not deadlock on the failed jobs
  EXPECT_EQ(ran.load(), 50);
  // The workers survived: the pool still executes new jobs.
  std::atomic<int> after{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&after] { after.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(after.load(), 20);
}

TEST(ThreadPool, SingleThreadSurvivesThrowingJob) {
  // With one worker, a single escaped exception would kill the whole pool.
  ThreadPool pool(1);
  pool.submit([] { throw 42; });  // non-std::exception payloads too
  pool.wait_idle();
  std::atomic<bool> ok{false};
  pool.submit([&ok] { ok.store(true); });
  pool.wait_idle();
  EXPECT_TRUE(ok.load());
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> touched(kN);
  parallel_for(&pool, kN, [&](std::size_t i) { touched[i].fetch_add(1); },
               /*grain=*/16);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, InlineWhenNoPool) {
  std::vector<int> touched(100, 0);
  parallel_for(nullptr, touched.size(),
               [&](std::size_t i) { touched[i] += 1; });
  EXPECT_EQ(std::accumulate(touched.begin(), touched.end(), 0), 100);
}

TEST(ParallelFor, ZeroIterationsIsANoop) {
  ThreadPool pool(2);
  parallel_for(&pool, 0, [](std::size_t) { FAIL(); });
  SUCCEED();
}

TEST(ParallelFor, SmallRangeRunsInline) {
  ThreadPool pool(4);
  // n < grain must execute on the calling thread (deterministic order).
  std::vector<std::size_t> order;
  parallel_for(&pool, 5, [&](std::size_t i) { order.push_back(i); },
               /*grain=*/256);
  const std::vector<std::size_t> expect{0, 1, 2, 3, 4};
  EXPECT_EQ(order, expect);
}

TEST(ParallelFor, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(
          &pool, 5000,
          [](std::size_t i) {
            if (i == 4321) throw std::runtime_error("boom");
          },
          /*grain=*/16),
      std::runtime_error);
}

TEST(ParallelFor, ResultsMatchSerialReduction) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 4096;
  std::vector<double> out(kN);
  parallel_for(&pool, kN,
               [&](std::size_t i) { out[i] = static_cast<double>(i) * 0.5; },
               /*grain=*/32);
  double sum = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(sum, 0.5 * (kN - 1.0) * kN / 2.0);
}

TEST(ThreadPool, ConcurrentSubmitFromManyThreads) {
  // submit() is part of the pool's public contract from any thread — the
  // collector's pollers enqueue follow-up work concurrently.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 8; ++p) {
    producers.emplace_back([&pool, &count] {
      for (int i = 0; i < 250; ++i) {
        pool.submit([&count] { count.fetch_add(1); });
      }
    });
  }
  for (auto& t : producers) t.join();
  pool.wait_idle();
  EXPECT_EQ(count.load(), 2000);
}

TEST(ThreadPool, WaitIdleRacingNewSubmissions) {
  // wait_idle from one thread while another keeps submitting must neither
  // deadlock nor miss work: after both finish, every job has run.
  ThreadPool pool(3);
  std::atomic<int> count{0};
  std::thread submitter([&pool, &count] {
    for (int i = 0; i < 500; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
      if (i % 100 == 0) std::this_thread::yield();
    }
  });
  for (int i = 0; i < 20; ++i) pool.wait_idle();  // must not hang mid-storm
  submitter.join();
  pool.wait_idle();
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPool, SubmitAfterShutdownThrowsTypedError) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) pool.submit([&count] { count.fetch_add(1); });
  pool.shutdown();
  EXPECT_EQ(count.load(), 10);  // shutdown drains before joining
  // A typed, catchable rejection — shutdown legitimately races with
  // producers, so this must not be a contract violation.
  EXPECT_THROW(pool.submit([] {}), PoolStoppedError);
  pool.shutdown();  // idempotent
  EXPECT_EQ(pool.size(), 0u);
}

TEST(ThreadPool, SubmitVersusStopRace) {
  // Hammer submit from several threads while the pool shuts down.  The
  // contract: every submit either returns normally (the job runs before
  // shutdown completes) or throws PoolStoppedError (the job never runs).
  // Executed count == accepted count proves no job was silently dropped.
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(2);
    std::atomic<int> accepted{0};
    std::atomic<int> executed{0};
    std::atomic<int> rejected{0};
    std::vector<std::thread> submitters;
    submitters.reserve(4);
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&] {
        for (int i = 0; i < 50; ++i) {
          try {
            pool.submit([&executed] { executed.fetch_add(1); });
            accepted.fetch_add(1);
          } catch (const PoolStoppedError&) {
            rejected.fetch_add(1);
          }
        }
      });
    }
    std::this_thread::yield();
    pool.shutdown();
    for (auto& t : submitters) t.join();
    EXPECT_EQ(executed.load(), accepted.load()) << "round " << round;
    EXPECT_EQ(accepted.load() + rejected.load(), 200) << "round " << round;
  }
}

TEST(ThreadPool, CancelledTokenSkipsJobAtDequeue) {
  ThreadPool pool(1);
  CancelToken gate;     // blocks the worker so later jobs stay queued
  CancelToken doomed;   // cancelled while its job is still queued
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  pool.submit([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  pool.submit([&ran] { ran.fetch_add(1); }, &doomed);
  pool.submit([&ran] { ran.fetch_add(1); }, &gate);
  doomed.cancel();
  release.store(true);
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 1);  // doomed job skipped, gated job ran
}

TEST(ParallelForDynamic, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 5000;
  std::vector<std::atomic<int>> touched(kN);
  parallel_for_dynamic(&pool, kN,
                       [&](std::size_t i) { touched[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForDynamic, InlineWhenNoPool) {
  std::vector<std::size_t> order;
  parallel_for_dynamic(nullptr, 5,
                       [&](std::size_t i) { order.push_back(i); });
  const std::vector<std::size_t> expect{0, 1, 2, 3, 4};
  EXPECT_EQ(order, expect);
}

TEST(ParallelForDynamic, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for_dynamic(&pool, 1000,
                                    [](std::size_t i) {
                                      if (i == 777) {
                                        throw std::runtime_error("boom");
                                      }
                                    }),
               std::runtime_error);
}

TEST(ParallelForDynamic, BalancesWildlyUnevenWork) {
  // One expensive index among thousands of cheap ones — dynamic
  // assignment must still cover everything (the flaky-meter shape).
  ThreadPool pool(4);
  std::atomic<int> count{0};
  parallel_for_dynamic(&pool, 2000, [&](std::size_t i) {
    if (i == 0) {
      std::atomic<int> spin{0};
      while (spin.fetch_add(1) < 2000000) {
      }
    }
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 2000);
}

TEST(ParallelForDynamic, SlotsAreExclusivePerWorker) {
  // Per-worker scratch indexed by slot must never be shared by two
  // concurrently running bodies.
  ThreadPool pool(4);
  constexpr std::size_t kN = 4000;
  const std::size_t slots = dynamic_slots(&pool, kN);
  EXPECT_EQ(slots, 4u);
  std::vector<std::atomic<bool>> busy(slots);
  std::vector<std::atomic<int>> touched(kN);
  std::atomic<int> overlaps{0};
  parallel_for_dynamic_slots(&pool, kN, [&](std::size_t slot, std::size_t i) {
    ASSERT_LT(slot, slots);
    if (busy[slot].exchange(true)) overlaps.fetch_add(1);
    touched[i].fetch_add(1);
    std::this_thread::yield();
    busy[slot].store(false);
  });
  EXPECT_EQ(overlaps.load(), 0);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
  }

  // Inline runs (no pool, one worker, fewer indices than workers) use
  // slot 0 / at most n slots.
  EXPECT_EQ(dynamic_slots(nullptr, 5), 1u);
  EXPECT_EQ(dynamic_slots(&pool, 2), 2u);
  std::vector<std::size_t> seen;
  parallel_for_dynamic_slots(nullptr, 3, [&](std::size_t slot, std::size_t) {
    seen.push_back(slot);
  });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 0, 0}));
}

TEST(DefaultPool, IsSingletonAndUsable) {
  ThreadPool& a = default_pool();
  ThreadPool& b = default_pool();
  EXPECT_EQ(&a, &b);
  std::atomic<int> n{0};
  parallel_for(&a, 1000, [&](std::size_t) { n.fetch_add(1); }, 1);
  EXPECT_EQ(n.load(), 1000);
}

}  // namespace
}  // namespace pv
