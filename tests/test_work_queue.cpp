// Tests for the global MPMC work queue (parallel/work_queue.h) and the
// helper threads it owns.
#include "parallel/work_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace parallel = fpsnr::parallel;

namespace {

/// Size of the queue's helper set (hardware_concurrency, at least 1).
std::size_t helper_count() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// Occupies every helper thread until release(): a drain on its own
/// std::thread whose helper_count() + 1 tasks block, returned once every
/// one of them has started (so each helper is running one).
class PinnedHelpers {
 public:
  PinnedHelpers() {
    const std::size_t lanes = helper_count() + 1;
    for (std::size_t i = 0; i < lanes; ++i)
      queue_.push([this] {
        started_.fetch_add(1);
        while (!released_.load())
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
      });
    drainer_ = std::thread([this, lanes] { queue_.drain(lanes); });
    while (started_.load() < lanes)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ~PinnedHelpers() {
    release();
    drainer_.join();
  }
  PinnedHelpers(const PinnedHelpers&) = delete;
  PinnedHelpers& operator=(const PinnedHelpers&) = delete;
  void release() { released_.store(true); }

 private:
  parallel::WorkQueue queue_;
  std::atomic<std::size_t> started_{0};
  std::atomic<bool> released_{false};
  std::thread drainer_;
};

/// Tracks how many tasks run at once and the highest count seen.
struct ConcurrencyProbe {
  std::atomic<int> active{0}, peak{0};
  void run_for(std::chrono::microseconds busy) {
    const int now = active.fetch_add(1) + 1;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(busy);
    active.fetch_sub(1);
  }
};

}  // namespace

TEST(WorkQueue, RunsEveryTask) {
  parallel::WorkQueue queue;
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits)
    queue.push([&h] { h.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(queue.pending(), 1000u);
  queue.drain(8);
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(WorkQueue, InlineDrainStaysOnCaller) {
  // max_workers <= 1 runs inline on the caller — the deterministic serial
  // path the pipeline uses for threads 0/1.
  parallel::WorkQueue queue;
  const auto caller = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  for (const std::size_t workers : {std::size_t{0}, std::size_t{1}}) {
    for (int i = 0; i < 64; ++i)
      queue.push([&] {
        if (std::this_thread::get_id() != caller) ++off_thread;
      });
    queue.drain(workers);
  }
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(WorkQueue, ConcurrencyStaysWithinRequestedCap) {
  constexpr int kCap = 2;
  // Tasks that each push one follow-up, as the batch engine's verify
  // decodes do: every mid-drain push may offer a helper, but never past
  // the cap.
  {
    parallel::WorkQueue queue;
    ConcurrencyProbe probe;
    for (int i = 0; i < 32; ++i)
      queue.push([&] {
        probe.run_for(std::chrono::microseconds(500));
        queue.push([&] { probe.run_for(std::chrono::microseconds(500)); });
      });
    queue.drain(kCap);
    EXPECT_LE(probe.peak.load(), kCap);
    EXPECT_GE(probe.peak.load(), 1);
  }
  // A second thread pushing while the drain runs, as fpsnrd's connection
  // handlers do.
  {
    parallel::WorkQueue queue;
    ConcurrencyProbe probe;
    std::atomic<bool> started{false};
    queue.push([&] {
      started.store(true);
      probe.run_for(std::chrono::milliseconds(20));
    });
    std::thread producer([&] {
      while (!started.load()) std::this_thread::yield();
      for (int i = 0; i < 32; ++i)
        queue.push([&] { probe.run_for(std::chrono::microseconds(500)); });
    });
    queue.drain(kCap);
    producer.join();
    queue.drain(kCap);  // whatever the producer pushed after the drain ended
    EXPECT_LE(probe.peak.load(), kCap);
  }
}

TEST(WorkQueue, TasksMayPushFollowUpTasks) {
  parallel::WorkQueue queue;
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i)
    queue.push([&queue, &ran] {
      ran.fetch_add(1);
      // Two generations of follow-up work, pushed mid-drain.
      queue.push([&queue, &ran] {
        ran.fetch_add(1);
        queue.push([&ran] { ran.fetch_add(1); });
      });
    });
  queue.drain(4);
  EXPECT_EQ(ran.load(), 30);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(WorkQueue, ExceptionRethrownAfterAllTasksRan) {
  parallel::WorkQueue queue;
  std::atomic<int> ran{0};
  queue.push([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 100; ++i)
    queue.push([&] { ran.fetch_add(1); });
  EXPECT_THROW(queue.drain(4), std::runtime_error);
  // The failing task never cancels the rest: producers with per-task
  // cleanup must see every task either executed or still queued.
  EXPECT_EQ(ran.load(), 100);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(WorkQueue, RethrowsTheFirstTaskError) {
  parallel::WorkQueue queue;
  for (int i = 0; i < 32; ++i)
    queue.push([i] {
      if (i % 7 == 3) throw std::logic_error("task " + std::to_string(i));
    });
  // drain(1) runs in push order, so "first" is the first failing task.
  try {
    queue.drain(1);
    FAIL() << "drain(1) swallowed the task errors";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "task 3");
  }
  for (int i = 0; i < 32; ++i)
    queue.push([i] {
      if (i % 7 == 0) throw std::logic_error("x");
    });
  EXPECT_THROW(queue.drain(4), std::logic_error);
}

TEST(WorkQueue, ReusableAcrossDrains) {
  parallel::WorkQueue queue;
  std::atomic<int> ran{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 50; ++i)
      queue.push([&] { ran.fetch_add(1); });
    queue.drain(4);
    EXPECT_EQ(ran.load(), 50 * (round + 1));
  }
}

TEST(WorkQueue, ConcurrentProducers) {
  parallel::WorkQueue queue;
  std::atomic<int> ran{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p)
    producers.emplace_back([&] {
      for (int i = 0; i < 250; ++i)
        queue.push([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    });
  for (auto& t : producers) t.join();
  queue.drain(8);
  EXPECT_EQ(ran.load(), 1000);
}

TEST(WorkQueue, NestedDrainInsidePoolWorkerDoesNotDeadlock) {
  // A drain issued from inside a helper thread must complete even when
  // every helper is busy (here: running the outer tasks, each of which
  // nests an inner drain): the caller always participates.
  parallel::WorkQueue outer;
  std::atomic<int> ran{0};
  const std::size_t lanes = helper_count() + 2;
  for (std::size_t i = 0; i < lanes; ++i)
    outer.push([&ran] {
      parallel::WorkQueue inner;
      for (int j = 0; j < 20; ++j)
        inner.push([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      inner.drain(4);
    });
  outer.drain(lanes);
  EXPECT_EQ(ran.load(), static_cast<int>(lanes) * 20);
}

TEST(WorkQueue, StaleHelpersCannotJoinALaterInlineDrain) {
  // drain(8)'s best-effort helper offers may still wait for a helper
  // thread after the drain returns. Pin every helper so that is
  // guaranteed, then release them DURING a later drain(1): the stale
  // offers run mid-drain and must bow out (drain id check) instead of
  // running tasks — drain(1) promises strictly-inline execution.
  PinnedHelpers pinned;

  parallel::WorkQueue queue;
  for (int i = 0; i < 8; ++i) queue.push([] {});
  queue.drain(8);  // its offers queue behind the pinned helpers, go stale

  const auto caller = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  for (int i = 0; i < 500; ++i)
    queue.push([&off_thread, caller] {
      if (std::this_thread::get_id() != caller)
        off_thread.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    });
  pinned.release();  // stale offers run while drain(1) is running
  queue.drain(1);
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(WorkQueue, EmptyDrainReturnsImmediately) {
  parallel::WorkQueue queue;
  queue.drain(8);
  queue.drain(0);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(WorkQueue, OverlappingDrainFromInsideATaskThrows) {
  // drain() documents "one drain at a time" — and now enforces it in every
  // build. Re-draining the SAME queue from inside one of its own running
  // tasks must be a loud std::logic_error, not a deadlock or a silent
  // double-execution. (Draining a DIFFERENT queue from inside a task stays
  // legal — NestedDrainInsidePoolWorkerDoesNotDeadlock above covers it.)
  parallel::WorkQueue queue;
  std::atomic<bool> threw{false};
  queue.push([&] {
    try {
      queue.drain(1);
    } catch (const std::logic_error&) {
      threw.store(true);
    }
  });
  queue.drain(1);
  EXPECT_TRUE(threw.load());
  // The queue stays usable after the rejected re-entry.
  std::atomic<int> ran{0};
  queue.push([&] { ran.fetch_add(1); });
  queue.drain(1);
  EXPECT_EQ(ran.load(), 1);
}

TEST(WorkQueue, OverlappingDrainFromAnotherThreadThrows) {
  parallel::WorkQueue queue;
  std::atomic<bool> in_task{false}, release{false};
  queue.push([&] {
    in_task.store(true);
    while (!release.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  std::thread drainer([&] { queue.drain(1); });
  while (!in_task.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_THROW(queue.drain(1), std::logic_error);
  release.store(true);
  drainer.join();
  // The guard resets once the first drain finishes.
  queue.push([] {});
  queue.drain(1);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(WorkQueue, PriorityLaneRunsBeforeQueuedFifoTasks) {
  parallel::WorkQueue queue;
  std::vector<int> order;  // drain(1) is strictly inline: no races
  parallel::WorkQueue::TaskOptions high;
  high.priority = true;
  queue.push([&] { order.push_back(1); });
  queue.push([&] { order.push_back(2); });
  queue.push([&] { order.push_back(-1); }, high);
  queue.push([&] { order.push_back(-2); }, high);
  EXPECT_EQ(queue.pending(), 4u);  // pending() spans both lanes
  queue.drain(1);
  EXPECT_EQ(order, (std::vector<int>{-1, -2, 1, 2}));
}

TEST(WorkQueue, ExpiredDeadlineRunsOnExpiredInsteadOfTask) {
  parallel::WorkQueue queue;
  std::atomic<bool> task_ran{false}, expired_ran{false};
  parallel::WorkQueue::TaskOptions expired;
  expired.deadline = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1);  // already past at pop
  expired.on_expired = [&] { expired_ran.store(true); };
  queue.push([&] { task_ran.store(true); }, expired);
  queue.drain(1);
  EXPECT_FALSE(task_ran.load());
  EXPECT_TRUE(expired_ran.load());
}

TEST(WorkQueue, FutureDeadlineRunsTheTaskNormally) {
  parallel::WorkQueue queue;
  std::atomic<bool> task_ran{false}, expired_ran{false};
  parallel::WorkQueue::TaskOptions opts;
  opts.deadline = std::chrono::steady_clock::now() + std::chrono::hours(1);
  opts.on_expired = [&] { expired_ran.store(true); };
  queue.push([&] { task_ran.store(true); }, opts);
  queue.drain(1);
  EXPECT_TRUE(task_ran.load());
  EXPECT_FALSE(expired_ran.load());
}

// --- locality-aware placement ------------------------------------------------

TEST(WorkQueue, LocalityDisabledOnSingleWorkerDrainKeepsFifoOrder) {
  // drain(1) never enables locality placement: tagged or not, tasks run in
  // push order (this is what keeps byte-determinism trivially provable for
  // serial runs).
  parallel::WorkQueue queue;
  std::vector<int> order;
  parallel::WorkQueue::TaskOptions tag_a, tag_b;
  tag_a.locality = 7;
  tag_b.locality = 9;
  queue.push([&] { order.push_back(1); }, tag_a);
  queue.push([&] { order.push_back(2); }, tag_b);
  queue.push([&] { order.push_back(3); }, tag_a);
  queue.push([&] { order.push_back(4); });
  queue.drain(1);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(WorkQueue, LocalityNeverDropsOrDuplicatesTasks) {
  // Placement is a pop-order hint, nothing more: every tagged task runs
  // exactly once regardless of key distribution or worker count.
  parallel::WorkQueue queue;
  std::atomic<int> ran{0};
  for (int i = 0; i < 500; ++i) {
    parallel::WorkQueue::TaskOptions opts;
    opts.locality = static_cast<std::uint64_t>(1 + i % 7);
    queue.push([&] { ran.fetch_add(1, std::memory_order_relaxed); }, opts);
  }
  queue.drain(8);
  EXPECT_EQ(ran.load(), 500);
  EXPECT_EQ(queue.pending(), 0u);

  // The per-drain executor map is cleared between drains, so a second
  // drain with fresh keys behaves identically.
  for (int i = 0; i < 100; ++i) {
    parallel::WorkQueue::TaskOptions opts;
    opts.locality = static_cast<std::uint64_t>(1 + i % 3);
    queue.push([&] { ran.fetch_add(1, std::memory_order_relaxed); }, opts);
  }
  queue.drain(4);
  EXPECT_EQ(ran.load(), 600);
}

TEST(WorkQueue, PriorityLaneStaysStrictlyFifoUnderLocalityTags) {
  // Locality placement applies to the FIFO lane only; priority tasks keep
  // their strict submission order even when tagged.
  parallel::WorkQueue queue;
  std::vector<int> order;
  parallel::WorkQueue::TaskOptions high_a, high_b;
  high_a.priority = true;
  high_a.locality = 42;
  high_b.priority = true;
  high_b.locality = 43;
  queue.push([&] { order.push_back(1); });
  queue.push([&] { order.push_back(-1); }, high_a);
  queue.push([&] { order.push_back(-2); }, high_b);
  queue.push([&] { order.push_back(-3); }, high_a);
  queue.drain(1);
  EXPECT_EQ(order, (std::vector<int>{-1, -2, -3, 1}));
}
