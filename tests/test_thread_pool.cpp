// Unit tests for parallel::ThreadPool and the process-wide shared pool
// (parallel/shared_pool.h).
#include "parallel/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "parallel/shared_pool.h"

namespace parallel = fpsnr::parallel;

TEST(ThreadPool, ExecutesSubmittedTasks) {
  parallel::ThreadPool pool(4);
  auto f1 = pool.submit([] { return 21 * 2; });
  auto f2 = pool.submit([] { return std::string("done"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "done");
}

TEST(ThreadPool, DefaultsToAtLeastOneThread) {
  parallel::ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, ManyTasksAllRun) {
  parallel::ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 200; ++i)
    futs.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  parallel::ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsCleanly) {
  std::atomic<int> done{0};
  {
    parallel::ThreadPool pool(2);
    for (int i = 0; i < 50; ++i)
      (void)pool.submit([&done] { done.fetch_add(1); });
    // Futures intentionally dropped; destructor must still join workers.
  }
  EXPECT_LE(done.load(), 50);
}

// --- process-wide shared pool ------------------------------------------------

TEST(SharedPool, IsOneProcessWideInstance) {
  parallel::ThreadPool& a = parallel::shared_pool();
  parallel::ThreadPool& b = parallel::shared_pool();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.thread_count(), 1u);
}

TEST(SharedPool, ParallelForSharedCoversAllIndices) {
  std::vector<int> hits(500, 0);
  parallel::parallel_for_shared(hits.size(), 4,
                                [&](std::size_t i) { hits[i] += 1; });
  for (int h : hits) ASSERT_EQ(h, 1);
}

TEST(SharedPool, SerialWhenSingleWorkerRequested) {
  // max_workers <= 1 must run inline on the caller — the deterministic
  // serial path the pipeline uses for threads 0/1.
  const auto caller = std::this_thread::get_id();
  parallel::parallel_for_shared(16, 1, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  parallel::parallel_for_shared(0, 8,
                                [](std::size_t) { FAIL() << "count == 0"; });
}

TEST(SharedPool, RethrowsFirstTaskError) {
  EXPECT_THROW(parallel::parallel_for_shared(
                   32, 4,
                   [](std::size_t i) {
                     if (i % 7 == 0) throw std::logic_error("x");
                   }),
               std::logic_error);
}

TEST(SharedPool, NestedLoopsDoNotDeadlock) {
  // Batch fans fields out on the shared pool and every field's pipeline
  // fans blocks out on the same pool; the caller-participates design must
  // survive that nesting even when workers are all busy.
  std::atomic<int> leaves{0};
  parallel::parallel_for_shared(8, 8, [&](std::size_t) {
    parallel::parallel_for_shared(8, 8,
                                  [&](std::size_t) { leaves.fetch_add(1); });
  });
  EXPECT_EQ(leaves.load(), 64);
}

TEST(SharedPool, ConcurrencyStaysWithinRequestedCap) {
  std::atomic<int> active{0}, peak{0};
  parallel::parallel_for_shared(64, 3, [&](std::size_t) {
    const int now = active.fetch_add(1) + 1;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    active.fetch_sub(1);
  });
  EXPECT_LE(peak.load(), 3);
  EXPECT_GE(peak.load(), 1);
}
