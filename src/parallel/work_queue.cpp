#include "parallel/work_queue.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace fpsnr::parallel {

namespace {

/// The process-lifetime helper threads every drain borrows from. They run
/// plain offers in FIFO order; nothing ever waits on an offer, so there is
/// no result or future to hand back.
class Helpers {
 public:
  Helpers() {
    const std::size_t n =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    threads_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      threads_.emplace_back([this] { loop(); });
  }

  ~Helpers() {
    {
      std::lock_guard lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  Helpers(const Helpers&) = delete;
  Helpers& operator=(const Helpers&) = delete;

  /// Queue `offer` for the next idle helper; dropped once shutdown began
  /// (the drain's caller completes the work alone).
  void offer(std::function<void()> offer) {
    {
      std::lock_guard lock(mutex_);
      if (stopping_) return;
      offers_.push_back(std::move(offer));
    }
    cv_.notify_one();
  }

 private:
  void loop() {
    for (;;) {
      std::function<void()> offer;
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [this] { return stopping_ || !offers_.empty(); });
        if (offers_.empty()) return;  // stopping and drained
        offer = std::move(offers_.front());
        offers_.pop_front();
      }
      offer();
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> offers_;  ///< guarded by mutex_
  bool stopping_ = false;                     ///< guarded by mutex_
  std::vector<std::thread> threads_;
};

Helpers& helpers() {
  static Helpers instance;
  return instance;
}

}  // namespace

struct WorkQueue::State {
  /// One queued unit of work: the task plus its scheduling attributes.
  /// Plain push() leaves the defaults (no deadline), so the FIFO lane's
  /// byte-deterministic pop order is exactly the pre-options behaviour.
  struct Entry {
    Task task;
    Task on_expired;
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    std::uint64_t locality = 0;  ///< 0 = no placement preference
  };

  /// How far into the FIFO lane an executor looks for a task whose
  /// locality key it owns. Small and fixed: the scan is O(window) under
  /// the queue lock, and a task can be bypassed at most by tagged tasks
  /// inside this window — never starved behind an unbounded stream.
  static constexpr std::size_t kLocalityWindow = 16;

  std::mutex mutex;
  std::condition_variable idle;  ///< queue empty + nothing running, or new work
  std::deque<Entry> priority_tasks;  ///< drained before the FIFO lane
  std::deque<Entry> tasks;
  std::size_t running = 0;
  std::exception_ptr first_error;
  /// Guards the one-drain-at-a-time contract: set for the duration of a
  /// drain(), so an overlapping drain (another thread, or a task of the
  /// running drain draining its own queue) fails loudly instead of the two
  /// drains stealing each other's error slot and executor budget.
  std::atomic<bool> draining{false};
  /// Locality placement state, all under `mutex`. Enabled only for the
  /// duration of a multi-worker drain (a single executor has nothing to
  /// place); the affinity map is cleared when the drain ends, so keys
  /// never alias across drains or leak memory between batches.
  bool locality_enabled = false;
  std::size_t executor_serial = 0;  ///< hands each run_tasks pass an id
  std::unordered_map<std::uint64_t, std::size_t> last_executor;
  /// The running drain's executor budget, all under `mutex`: `cap` is its
  /// max_workers (0 between drains, so pushes then offer nothing),
  /// `executors` counts the caller plus every admitted helper, `offered`
  /// the helper offers not yet picked up. Each offer reserves a slot, so
  /// executors + offered <= cap holds however many tasks are pushed
  /// mid-drain, from whichever thread. Such a push offers a helper while a
  /// slot is free: retired helpers never rejoin on their own, and a burst
  /// of follow-up tasks (e.g. the batch engine's per-field verify decodes)
  /// would otherwise serialize on whoever pushed them.
  std::size_t cap = 0;
  std::size_t executors = 0;
  std::size_t offered = 0;
  /// Per-drain identity, bumped the moment a drain ends. An offer may wait
  /// for a helper thread long past its drain() and run at any later moment
  /// (between drains, or inside a later drain(1) that promises
  /// strictly-inline execution), so it carries the id of the drain it was
  /// made for, and a stale one retires without touching tasks it was
  /// never budgeted for.
  std::uint64_t drain_id = 0;

  bool has_work() const { return !priority_tasks.empty() || !tasks.empty(); }

  /// Ask the helper threads to join drain `id` (the caller holds `mutex`).
  static void offer_help(const std::shared_ptr<State>& state,
                         std::uint64_t id) {
    ++state->offered;
    helpers().offer([state, id] { state->help(id); });
  }

  /// A helper's entry point: join drain `id`, on the slot its offer
  /// reserved, if that drain is still running.
  void help(std::uint64_t id) {
    std::unique_lock lock(mutex);
    if (id != drain_id) return;  // stale: its drain already ended
    --offered;
    ++executors;
    run_tasks(lock);
    --executors;
  }

  /// Pop-and-run (with `lock` held on entry and exit) until the queue is
  /// empty. A helper's drain cannot end while it runs: the drain waits for
  /// an empty queue with nothing running.
  void run_tasks(std::unique_lock<std::mutex>& lock) {
    const std::size_t me = ++executor_serial;
    while (has_work()) {
      auto& lane = priority_tasks.empty() ? tasks : priority_tasks;
      // Locality pass (FIFO lane only; the priority lane stays strict):
      // prefer a tagged task near the front whose neighborhood this
      // executor touched last. Untagged tasks are never reordered
      // relative to each other — only tagged tasks may jump the line.
      std::size_t pick = 0;
      if (locality_enabled && priority_tasks.empty()) {
        const std::size_t window = std::min(lane.size(), kLocalityWindow);
        for (std::size_t i = 0; i < window; ++i) {
          const std::uint64_t key = lane[i].locality;
          if (key == 0) continue;
          const auto it = last_executor.find(key);
          if (it != last_executor.end() && it->second == me) {
            pick = i;
            break;
          }
        }
      }
      Entry entry = std::move(lane[pick]);
      lane.erase(lane.begin() + static_cast<std::ptrdiff_t>(pick));
      if (locality_enabled && entry.locality != 0)
        last_executor[entry.locality] = me;
      ++running;
      lock.unlock();
      // Expiry is decided once, at pop time: a task that begins before its
      // deadline runs to completion, an expired one is replaced by its
      // on_expired hook (which reports the rejection to whoever waits on
      // the task's result). Both sides share the drain's exception policy.
      Task& chosen =
          entry.deadline < std::chrono::steady_clock::now() ? entry.on_expired
                                                            : entry.task;
      try {
        if (chosen) chosen();
      } catch (...) {
        lock.lock();
        if (!first_error) first_error = std::current_exception();
        lock.unlock();
      }
      lock.lock();
      --running;
    }
    if (running == 0) idle.notify_all();
  }
};

WorkQueue::WorkQueue() : state_(std::make_shared<State>()) {}

WorkQueue::~WorkQueue() = default;

void WorkQueue::push(Task task) { push(std::move(task), TaskOptions{}); }

void WorkQueue::push(Task task, TaskOptions options) {
  {
    std::lock_guard lock(state_->mutex);
    auto& lane = options.priority ? state_->priority_tasks : state_->tasks;
    lane.push_back({std::move(task), std::move(options.on_expired),
                    options.deadline, options.locality});
    if (state_->executors + state_->offered < state_->cap)
      State::offer_help(state_, state_->drain_id);
  }
  // Wake the drain() caller if it is parked: an in-flight task may have
  // produced follow-up work after the queue looked empty.
  state_->idle.notify_all();
}

std::size_t WorkQueue::pending() const {
  std::lock_guard lock(state_->mutex);
  return state_->tasks.size() + state_->priority_tasks.size();
}

void WorkQueue::drain(std::size_t max_workers) {
  const std::shared_ptr<State> state = state_;
  if (state->draining.exchange(true, std::memory_order_acq_rel))
    throw std::logic_error(
        "WorkQueue::drain: a drain is already running on this queue "
        "(one drain at a time — overlapping drains would steal each "
        "other's tasks, exceptions, and executor budget)");
  struct DrainGuard {
    std::atomic<bool>& flag;
    ~DrainGuard() { flag.store(false, std::memory_order_release); }
  } drain_guard{state->draining};
  std::unique_lock lock(state->mutex);
  state->cap = std::max<std::size_t>(max_workers, 1);
  state->executors = 1;  // the caller
  // With more than one executor, honor locality tags; a drain(1) pops
  // pure FIFO so replays match the queue order exactly.
  state->locality_enabled = state->cap > 1;
  // Helpers are best effort: if none is ever scheduled, the caller's own
  // loop below still drains everything, so a drain nested inside a helper
  // cannot deadlock.
  const std::size_t initial = std::min(
      state->cap - 1, state->tasks.size() + state->priority_tasks.size());
  for (std::size_t i = 0; i < initial; ++i)
    State::offer_help(state, state->drain_id);

  for (;;) {
    if (state->has_work()) {
      // Also picks up follow-up work an in-flight task pushed after the
      // queue looked empty, should its helper offer find no free thread.
      state->run_tasks(lock);
      continue;
    }
    if (state->running == 0) break;
    state->idle.wait(lock,
                     [&] { return state->has_work() || state->running == 0; });
  }
  // Retire this drain's outstanding offers BEFORE dropping the mutex: they
  // check the id under the same lock, so none can pop a task pushed after
  // this drain's completion was decided.
  ++state->drain_id;
  state->cap = state->executors = state->offered = 0;
  state->locality_enabled = false;
  state->last_executor.clear();
  std::exception_ptr error = std::exchange(state->first_error, nullptr);
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

}  // namespace fpsnr::parallel
