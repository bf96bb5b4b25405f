#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

namespace wildenergy::util {

ThreadPool::ThreadPool(unsigned num_threads) {
  num_threads = std::max(1u, num_threads);
  workers_.reserve(num_threads);
  for (unsigned w = 0; w < num_threads; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock{mu_};
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void(unsigned)> job) {
  {
    const std::lock_guard<std::mutex> lock{mu_};
    queue_.push_back(std::move(job));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock{mu_};
  idle_cv_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void ThreadPool::worker_loop(unsigned worker) {
  std::unique_lock<std::mutex> lock{mu_};
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, and the queue is drained
    std::function<void(unsigned)> job = std::move(queue_.front());
    queue_.pop_front();
    ++running_;
    lock.unlock();
    std::exception_ptr thrown;
    try {
      job(worker);
    } catch (...) {
      thrown = std::current_exception();
    }
    lock.lock();
    if (thrown && !error_) error_ = thrown;
    if (--running_ == 0 && queue_.empty()) idle_cv_.notify_all();
  }
}

}  // namespace wildenergy::util
