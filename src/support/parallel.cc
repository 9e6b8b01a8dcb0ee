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
  return threads > 0 ? threads : DefaultThreadCount();
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

/// Submits `helpers` copies of the claim loop to the shared pool (State =
/// ForState or OrderedState; both expose mu/active/cv/DrainClaims). Each
/// helper registers as active before draining so the caller can wait for
/// every claimed index to complete; copies scheduled after the range is
/// exhausted return without registering work.
template <typename State>
void SubmitHelpers(const std::shared_ptr<State>& state, int helpers) {
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
  workers = std::min(workers, ThreadPool::kMaxThreads);
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

namespace {

/// Shared state of one ParallelForOrdered call. Producers claim indices in
/// order and fill ring slots; the calling thread consumes the ring in
/// index order and doubles as a producer whenever the next index to
/// consume is not yet being produced.
struct OrderedState {
  size_t begin = 0;
  size_t end = 0;
  size_t window = 0;
  std::atomic<size_t> next{0};
  std::atomic<size_t> first_bad{0};
  std::mutex mu;
  std::condition_variable cv;
  size_t consumed = 0;           ///< next index to consume (guarded by mu)
  std::vector<uint8_t> done;     ///< ring of produced flags (guarded by mu)
  int active = 0;                ///< producers inside the claim loop
  Status first_status;
  std::exception_ptr first_exception;
  const std::function<Status(size_t)>* produce = nullptr;

  bool Done(size_t i) { return done[(i - begin) % window] != 0; }
  void SetDone(size_t i) { done[(i - begin) % window] = 1; }
  void ClearDone(size_t i) { done[(i - begin) % window] = 0; }

  void RecordFailure(size_t i, Status status, std::exception_ptr ep) {
    {
      std::unique_lock<std::mutex> lock(mu);
      if (i < first_bad.load(std::memory_order_relaxed)) {
        first_bad.store(i, std::memory_order_relaxed);
        first_status = std::move(status);
        first_exception = ep;
      }
    }
    cv.notify_all();
  }

  /// Runs produce(i) for one claimed index, honouring the window gate:
  /// produce(i) may not start before consume(i - window) has returned.
  /// The gate always opens — every claimed index below i is produced by a
  /// non-blocked producer and consumed by the caller — unless the call is
  /// aborting, in which case the index is skipped.
  void ProduceOne(size_t i) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] {
        return i < consumed + window ||
               first_bad.load(std::memory_order_relaxed) < i;
      });
      if (first_bad.load(std::memory_order_relaxed) < i) return;
    }
    try {
      Status s = (*produce)(i);
      if (!s.ok()) RecordFailure(i, std::move(s), nullptr);
    } catch (...) {
      RecordFailure(i, Status::OK(), std::current_exception());
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      SetDone(i);
    }
    cv.notify_all();
  }

  /// Helper-task body: claim and produce until the range is exhausted.
  void DrainClaims() {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= end) return;
      if (i > first_bad.load(std::memory_order_relaxed)) continue;
      ProduceOne(i);
    }
  }
};

}  // namespace

Status ParallelForOrdered(size_t begin, size_t end,
                          const std::function<Status(size_t)>& produce,
                          const std::function<Status(size_t)>& consume,
                          int threads, int window) {
  if (begin >= end) return Status::OK();
  const size_t count = end - begin;
  int workers = ResolveThreadCount(threads);
  if (static_cast<size_t>(workers) > count) {
    workers = static_cast<int>(count);
  }
  workers = std::min(workers, ThreadPool::kMaxThreads);
  if (workers <= 1) {
    // Serial: the streaming contract (consume in index order, at most
    // `window` slots live) holds trivially with a window of one.
    for (size_t i = begin; i < end; ++i) {
      ULE_RETURN_IF_ERROR(produce(i));
      ULE_RETURN_IF_ERROR(consume(i));
    }
    return Status::OK();
  }
  if (window <= 0) window = 2 * workers;
  window = std::max(window, 2);

  auto state = std::make_shared<OrderedState>();
  state->begin = begin;
  state->end = end;
  state->window = static_cast<size_t>(window);
  state->next.store(begin, std::memory_order_relaxed);
  state->first_bad.store(end, std::memory_order_relaxed);
  state->consumed = begin;
  state->done.assign(state->window, 0);
  state->produce = &produce;

  SubmitHelpers(state, workers - 1);

  // The calling thread is the consumer and the producer of last resort: it
  // claims an index whenever the next index to consume is not yet claimed
  // (which is exactly the case where no running producer covers it). A
  // claim it cannot produce yet (window gate closed) is parked until
  // consumption reopens the gate, so the caller never blocks on work only
  // it could do.
  constexpr size_t kNoClaim = static_cast<size_t>(-1);
  size_t parked_claim = kNoClaim;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(state->mu);
      if (state->consumed >= end ||
          state->first_bad.load(std::memory_order_relaxed) <=
              state->consumed) {
        break;
      }
      if (!state->Done(state->consumed)) {
        const size_t claimed = state->next.load(std::memory_order_relaxed);
        if (parked_claim != kNoClaim || claimed > state->consumed) {
          // The next index is being produced (or the caller already holds
          // a parked claim above it): wait for production or for the
          // parked claim's gate to open.
          state->cv.wait(lock, [&] {
            return state->Done(state->consumed) ||
                   parked_claim < state->consumed + state->window ||
                   state->first_bad.load(std::memory_order_relaxed) <=
                       state->consumed;
          });
        }
      }
    }
    // Produce a parked claim once its gate is open.
    if (parked_claim != kNoClaim) {
      bool gate_open;
      {
        std::unique_lock<std::mutex> lock(state->mu);
        gate_open = parked_claim < state->consumed + state->window ||
                    state->first_bad.load(std::memory_order_relaxed) <
                        parked_claim;
      }
      if (gate_open) {
        state->ProduceOne(parked_claim);
        parked_claim = kNoClaim;
      }
    }
    bool consume_now = false;
    {
      std::unique_lock<std::mutex> lock(state->mu);
      if (state->consumed >= end ||
          state->first_bad.load(std::memory_order_relaxed) <=
              state->consumed) {
        break;
      }
      if (state->Done(state->consumed)) consume_now = true;
    }
    if (consume_now) {
      const size_t i = state->consumed;  // only this thread advances it
      try {
        Status s = consume(i);
        if (!s.ok()) {
          state->RecordFailure(i, std::move(s), nullptr);
          break;
        }
      } catch (...) {
        state->RecordFailure(i, Status::OK(), std::current_exception());
        break;
      }
      {
        std::unique_lock<std::mutex> lock(state->mu);
        state->ClearDone(i);
        state->consumed = i + 1;
      }
      state->cv.notify_all();  // reopen the window gate
      continue;
    }
    // Next index unclaimed and no parked claim: help produce. The claim
    // may land above the next-to-consume index (another producer claimed
    // it in the meantime); the gate logic above handles both cases.
    if (parked_claim == kNoClaim) {
      const size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i < end && i <= state->first_bad.load(std::memory_order_relaxed)) {
        parked_claim = i;
      }
    }
  }

  // Wind down. On normal exit every index was produced and consumed (a
  // parked claim cannot survive: its production gates consumption of the
  // indices above it). On abort a parked claim may remain unproduced —
  // nothing consumes past the failure, so it is simply dropped. Exhaust
  // the claim counter so helpers (gated, running, or scheduled later)
  // finish promptly, then wait for the running ones.
  state->next.fetch_add(count, std::memory_order_relaxed);
  state->cv.notify_all();
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] { return state->active == 0; });
  }
  if (state->first_bad.load(std::memory_order_relaxed) < end) {
    if (state->first_exception) std::rethrow_exception(state->first_exception);
    return state->first_status;
  }
  return Status::OK();
}

}  // namespace ule
