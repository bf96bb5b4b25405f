// A small fixed-size worker pool for the execution engine (core/engine.h).
//
// The engine's unit of parallelism is one (scenario, user) shard (DESIGN.md
// §7). It keeps a bounded window of shards in flight, so the pool is a plain
// FIFO job queue: submit() hands one job to the next free worker and returns
// at once; the engine waits for the job it needs next on its own condition.
// wait_idle() is the fork-join form: block until every submitted job is done.
//
// Determinism note: the pool makes no ordering promise beyond "jobs start in
// submission order". Callers that need deterministic results must let each
// job touch only its own slot and combine the slots serially afterwards.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wildenergy::util {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1). Workers idle until a job
  /// arrives.
  explicit ThreadPool(unsigned num_threads);
  /// Runs every job still queued to completion, then joins the workers — so
  /// state a queued job references may be destroyed right after the pool.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Queue job(worker); `worker` is the executing worker's index in
  /// [0, size()). An exception a job throws is kept for wait_idle().
  void submit(std::function<void(unsigned)> job);

  /// Block until every submitted job has finished. Rethrows the first
  /// exception a job threw since the last wait_idle() (the other jobs still
  /// ran); the pool stays usable either way.
  void wait_idle();

 private:
  void worker_loop(unsigned worker);

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait here for a job
  std::condition_variable idle_cv_;  ///< wait_idle waits here for drain
  std::deque<std::function<void(unsigned)>> queue_;
  std::size_t running_ = 0;  ///< jobs taken off the queue, not yet finished
  std::exception_ptr error_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace wildenergy::util
