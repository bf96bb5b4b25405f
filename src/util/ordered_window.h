// OrderedWindow: the one hand-off between a calling thread and its worker
// threads (DESIGN.md §7) — the engine's shards, the CSV reader's parse
// blocks and the trace store's segment seals all run on it.
//
//   Job& job = window.next();   // fill the next free slot (window not full)
//   window.push();              // run the routine on it: on a worker, or here
//   Job& done = window.front(); // wait for the oldest job; rethrows its throw
//   window.pop();               // retire it; its slot is reused
//
// The window owns at most `capacity` jobs, in slots reused from job to job
// (so their buffers are recycled), and its workers. Jobs start in push order
// and come back in push order, whatever order they finish in; a job's
// exception reaches the calling thread at that job's turn. At `threads` ≤ 1
// push() runs the routine inline and no thread starts. The destructor waits
// for the jobs running on workers and drops the ones not yet started, so a
// caller that returns early or throws never leaves a worker in a freed slot.
#pragma once

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace wildenergy::util {

template <typename Job>
class OrderedWindow {
 public:
  /// The routine every job runs: the job and the running worker's index in
  /// [0, workers()) — 0 inline.
  using Routine = std::function<void(Job&, unsigned)>;

  /// A window of `capacity` (≥ 1) jobs. At `threads` > 1 it starts
  /// min(threads, capacity) workers; at ≤ 1 it starts none.
  OrderedWindow(unsigned threads, std::size_t capacity, Routine routine)
      : slots_(std::max<std::size_t>(capacity, 1)), routine_(std::move(routine)) {
    if (threads <= 1) return;
    const auto n = static_cast<unsigned>(std::min<std::size_t>(threads, slots_.size()));
    workers_.reserve(n);
    for (unsigned w = 0; w < n; ++w) workers_.emplace_back([this, w] { work(w); });
  }

  /// Waits for the jobs running on workers, drops the ones not started.
  ~OrderedWindow() {
    {
      const std::lock_guard<std::mutex> lock{mu_};
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  OrderedWindow(const OrderedWindow&) = delete;
  OrderedWindow& operator=(const OrderedWindow&) = delete;

  /// Worker threads; 0 when jobs run inline.
  [[nodiscard]] unsigned workers() const { return static_cast<unsigned>(workers_.size()); }
  [[nodiscard]] bool empty() const { return pushed_ == popped_; }
  [[nodiscard]] bool full() const { return pushed_ - popped_ == slots_.size(); }

  /// The slot the next push() submits, holding whatever its last job left.
  Job& next() {
    assert(!full());
    return slots_[pushed_ % slots_.size()].job;
  }

  /// Submit next()'s slot: hand it to a worker, or run it here and now.
  void push() {
    assert(!full());
    Slot& slot = slots_[pushed_ % slots_.size()];
    if (workers_.empty()) {
      run(slot, 0);
      slot.done = true;
      ++pushed_;
      return;
    }
    {
      const std::lock_guard<std::mutex> lock{mu_};
      slot.done = false;
      ++pushed_;
    }
    work_cv_.notify_one();
  }

  /// The oldest job, once it is done. Rethrows what its routine threw, once;
  /// the job stays at the front until pop().
  Job& front() {
    assert(!empty());
    Slot& slot = slots_[popped_ % slots_.size()];
    if (!workers_.empty()) {
      std::unique_lock<std::mutex> lock{mu_};
      done_cv_.wait(lock, [&slot] { return slot.done; });
    }
    if (slot.thrown) std::rethrow_exception(std::exchange(slot.thrown, nullptr));
    return slot.job;
  }

  /// Retire the oldest job; its slot keeps the job's state for reuse.
  void pop() {
    assert(!empty());
    ++popped_;
  }

  /// Call `visit(job, done)` on every job in the window, oldest first. A job
  /// still running may be read only in what was set before its push().
  template <typename Visit>
  void visit(Visit&& visit) const {
    const std::lock_guard<std::mutex> lock{mu_};
    for (std::size_t seq = popped_; seq < pushed_; ++seq) {
      const Slot& slot = slots_[seq % slots_.size()];
      visit(slot.job, slot.done);
    }
  }

 private:
  struct Slot {
    Job job{};
    std::exception_ptr thrown;  ///< what the routine threw, until front()
    bool done = false;          ///< guarded by mu_ while workers run
  };

  void run(Slot& slot, unsigned worker) {
    try {
      routine_(slot.job, worker);
    } catch (...) {
      slot.thrown = std::current_exception();
    }
  }

  void work(unsigned worker) {
    std::unique_lock<std::mutex> lock{mu_};
    for (;;) {
      work_cv_.wait(lock, [this] { return stop_ || started_ < pushed_; });
      if (stop_) return;
      Slot& slot = slots_[started_++ % slots_.size()];
      lock.unlock();
      run(slot, worker);
      lock.lock();
      slot.done = true;
      done_cv_.notify_one();  // only the calling thread waits
    }
  }

  std::vector<Slot> slots_;  ///< job seq s lives in slots_[s % capacity]
  const Routine routine_;
  // Sequence numbers: the calling thread writes pushed_ (under mu_ once
  // workers run) and popped_; workers take jobs at started_.
  std::size_t pushed_ = 0;
  std::size_t popped_ = 0;
  std::size_t started_ = 0;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait here for a job
  std::condition_variable done_cv_;  ///< front() waits here for its job
  bool stop_ = false;
  std::vector<std::thread> workers_;  ///< last: they use every member above
};

}  // namespace wildenergy::util
