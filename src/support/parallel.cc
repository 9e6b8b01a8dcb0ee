#include "support/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

namespace ule {

int DefaultThreadCount() {
  if (const char* env = std::getenv("ULE_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int ResolveThreadCount(int threads) {
  return std::clamp(threads > 0 ? threads : DefaultThreadCount(), 1,
                    ThreadPool::kMaxThreads);
}

ThreadPool::ThreadPool(int thread_count) {
  EnsureWorkers(ResolveThreadCount(thread_count));
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::EnsureWorkers(int thread_count) {
  thread_count = std::min(thread_count, kMaxThreads);
  std::unique_lock<std::mutex> lock(mu_);
  if (stopping_) return;
  while (static_cast<int>(workers_.size()) < thread_count) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

int ThreadPool::thread_count() const {
  std::unique_lock<std::mutex> lock(mu_);
  return static_cast<int>(workers_.size());
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  task_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) all_done_.notify_all();
    }
  }
}

ThreadPool& SharedPool() {
  // Function-local static: lazily built on first parallel call, workers
  // joined by the static destructor at process exit (graceful shutdown).
  static ThreadPool pool;
  return pool;
}

namespace {

/// State shared between a ParallelFor call and its helper tasks. Held by
/// shared_ptr because helpers that were queued but never started may run
/// after the call returned; they see the claim counter exhausted (or the
/// abort skip) and exit without touching the caller's stack.
struct ForState {
  size_t end = 0;
  std::atomic<size_t> next{0};
  /// Lowest failing index so far (`end` = none). Workers consult the
  /// atomic on the fast path; `mu` orders updates of the index/status/
  /// exception triple.
  std::atomic<size_t> first_bad{0};
  std::mutex mu;
  std::condition_variable cv;
  int active = 0;  ///< helpers currently executing the claim loop
  Status first_status;
  std::exception_ptr first_exception;
  /// Valid only while unclaimed indices remain; helpers never dereference
  /// it afterwards (every claim is bounds-checked first).
  const std::function<Status(size_t)>* fn = nullptr;

  void RecordFailure(size_t i, Status status, std::exception_ptr ep) {
    std::unique_lock<std::mutex> lock(mu);
    if (i < first_bad.load(std::memory_order_relaxed)) {
      first_bad.store(i, std::memory_order_relaxed);
      first_status = std::move(status);
      first_exception = ep;
    }
  }

  /// Claims and runs indices until the range is exhausted. Safe to call
  /// from any thread, any number of times, at any point in the call's
  /// lifetime.
  void DrainClaims() {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= end) return;
      // Once a failure is recorded, higher indices may be skipped (a
      // serial loop would not have reached them either) — but an index
      // below the recorded failure must still run: it could fail too and
      // is the one a serial loop would have reported.
      if (i > first_bad.load(std::memory_order_relaxed)) continue;
      try {
        Status s = (*fn)(i);
        if (!s.ok()) RecordFailure(i, std::move(s), nullptr);
      } catch (...) {
        RecordFailure(i, Status::OK(), std::current_exception());
      }
    }
  }
};

/// Submits `helpers` copies of the claim loop to the shared pool. Each
/// helper registers as active before draining so the caller can wait for
/// every claimed index to complete; copies scheduled after the range is
/// exhausted return without registering work.
void SubmitHelpers(const std::shared_ptr<ForState>& state, int helpers) {
  SharedPool().EnsureWorkers(helpers);
  for (int t = 0; t < helpers; ++t) {
    SharedPool().Submit([state] {
      {
        std::unique_lock<std::mutex> lock(state->mu);
        ++state->active;
      }
      state->DrainClaims();
      {
        std::unique_lock<std::mutex> lock(state->mu);
        --state->active;
      }
      state->cv.notify_all();
    });
  }
}

/// Blocks until every claimed index has completed, then resolves the
/// call's outcome (rethrowing the lowest-index exception if any).
Status FinishFor(const std::shared_ptr<ForState>& state) {
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] {
      return state->active == 0 &&
             state->next.load(std::memory_order_relaxed) >= state->end;
    });
  }
  if (state->first_bad.load(std::memory_order_relaxed) < state->end) {
    if (state->first_exception) std::rethrow_exception(state->first_exception);
    return state->first_status;
  }
  return Status::OK();
}

}  // namespace

Status ParallelFor(size_t begin, size_t end,
                   const std::function<Status(size_t)>& fn, int threads) {
  if (begin >= end) return Status::OK();
  const size_t count = end - begin;
  int workers = ResolveThreadCount(threads);
  if (static_cast<size_t>(workers) > count) {
    workers = static_cast<int>(count);
  }
  if (workers <= 1) {
    for (size_t i = begin; i < end; ++i) ULE_RETURN_IF_ERROR(fn(i));
    return Status::OK();
  }

  auto state = std::make_shared<ForState>();
  state->end = end;
  state->next.store(begin, std::memory_order_relaxed);
  state->first_bad.store(end, std::memory_order_relaxed);
  state->fn = &fn;

  // The caller is one of the workers: even with the pool saturated (e.g.
  // nested fan-out from a pool worker) the call makes progress and the
  // degenerate outcome is the serial loop, never a deadlock.
  SubmitHelpers(state, workers - 1);
  state->DrainClaims();
  return FinishFor(state);
}

}  // namespace ule
