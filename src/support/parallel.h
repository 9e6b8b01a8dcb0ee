/// \file parallel.h
/// \brief Data-parallel primitives for the archive/restore paths.
///
/// The emblem pipeline is embarrassingly parallel across frames. This
/// header provides what its call sites need and nothing more:
///
///   * `ThreadPool` — a plain FIFO-queue pool (growable, no work stealing);
///   * `SharedPool()` — the process-wide persistent instance every helper
///     below schedules onto, so pipeline stages reuse the same worker
///     threads (and their thread-local VeRisc scratch machines) instead of
///     constructing a pool per call;
///   * `ParallelFor` — index-based fan-out with deterministic error
///     semantics;
///   * `ParallelForOrdered` — the streaming variant: produce in parallel,
///     consume serially in index order through a bounded in-flight window;
///   * `BoundedChannel<T>` — a small blocking MPMC queue for push-driven
///     pipelines whose item count is not known up front.
///
/// Determinism contract: workers claim indices from a shared counter, so
/// *scheduling* is nondeterministic, but callers write results into
/// per-index slots (or receive them through the ordered consumer), which
/// makes the observable output identical to a serial run. On failure, the
/// status (or exception) of the lowest failing index wins, matching what
/// a serial loop would have reported first; unstarted iterations above
/// the lowest recorded failing index may be skipped (indices below it
/// always still run — one of them could be the serial loop's failure).
///
/// Deadlock freedom: the calling thread always participates in its own
/// call (consuming and/or claiming indices), so every helper completes
/// even when the shared pool is saturated — nested fan-out from inside a
/// pool worker degrades to the serial loop instead of waiting for workers
/// that will never come. Helper tasks submitted to the pool never block
/// indefinitely: they drain a finite claim counter and their only waits
/// (the ordered window gate) are released by their call's own consumer.
///
/// Thread-count knobs, in priority order: an explicit `threads` argument
/// (> 0), the `ULE_THREADS` environment variable, then
/// std::thread::hardware_concurrency().

#ifndef ULE_SUPPORT_PARALLEL_H_
#define ULE_SUPPORT_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "support/status.h"

namespace ule {

/// Worker threads to use when the caller does not say: `ULE_THREADS` if
/// set to a positive integer, else std::thread::hardware_concurrency(),
/// never less than 1.
int DefaultThreadCount();

/// Resolves a thread-count knob: `threads` if positive, else
/// DefaultThreadCount().
int ResolveThreadCount(int threads);

/// \brief A growable thread pool with a shared FIFO queue.
///
/// Deliberately simple (no work stealing, no priorities): tasks in the
/// archive pipeline are coarse — an emblem encode, a frame decode, a whole
/// stream — so a single mutex-protected queue is nowhere near contended.
class ThreadPool {
 public:
  /// Starts `thread_count` workers (<= 0 means ResolveThreadCount(0)).
  explicit ThreadPool(int thread_count = 0);
  /// Waits for queued tasks to finish, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks must not throw (wrap with your own capture —
  /// ParallelFor does); submitting after the destructor has begun is UB.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has completed. The pool
  /// remains usable afterwards.
  void Wait();

  /// \brief Grows the pool to at least `thread_count` workers.
  ///
  /// Workers are only ever added, never removed before destruction — the
  /// whole point of the shared pool is that the threads (and their
  /// thread-local scratch state, e.g. the 4 MiB VeRisc machines) persist
  /// across pipeline stages. Growth is capped at kMaxThreads.
  void EnsureWorkers(int thread_count);

  /// Hard cap on pool growth; explicit per-call thread knobs above this
  /// are clamped rather than spawning unbounded threads.
  static constexpr int kMaxThreads = 256;

  int thread_count() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::vector<std::thread> workers_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  int active_ = 0;
  bool stopping_ = false;
};

/// \brief The process-wide persistent pool used by ParallelFor,
/// ParallelForOrdered and the streaming emblem pipeline.
///
/// Lazily built on first use with DefaultThreadCount() workers and grown
/// on demand (EnsureWorkers) when a call requests more; destroyed (workers
/// joined gracefully) at process exit. Worker threads live across calls,
/// which keeps their thread-local `verisc::Machine` instances — and their
/// 4 MiB memory images — warm across pipeline stages.
ThreadPool& SharedPool();

/// \brief Calls `fn(i)` for every i in [begin, end), on up to `threads`
/// concurrent workers, and blocks until all iterations finished.
///
/// Scheduling: the calling thread claims indices itself and up to
/// `threads - 1` helper tasks are submitted to SharedPool() — no pool is
/// constructed per call. Returns the Status of the lowest failing index
/// (OK when none fail); exceptions are captured and the lowest-index one
/// is rethrown in the caller. With an empty range this is a no-op; with
/// one worker (or a one-element range) it degenerates to the serial loop.
Status ParallelFor(size_t begin, size_t end,
                   const std::function<Status(size_t)>& fn, int threads = 0);

/// \brief Streaming parallel-for: `produce(i)` runs on up to `threads`
/// concurrent workers, `consume(i)` runs on the calling thread in strictly
/// increasing index order, and at most `window` indices are in flight
/// (produced or producing but not yet consumed) at any moment.
///
/// This is the bounded channel between pipeline stages: callers keep a
/// ring of `window` result slots, `produce(i)` fills slot `i % window`,
/// `consume(i)` drains it. The framework guarantees produce(i) does not
/// start before consume(i - window) has returned, so slot reuse is safe
/// and peak memory is O(window) instead of O(range).
///
/// `window` <= 0 selects 2x the worker count (minimum 2). Error semantics
/// match ParallelFor: the lowest failing index (from either callback)
/// wins, consumption stops before the failing index, and the lowest-index
/// exception is rethrown in the caller. With one worker the call is the
/// serial `produce(i); consume(i)` loop.
Status ParallelForOrdered(size_t begin, size_t end,
                          const std::function<Status(size_t)>& produce,
                          const std::function<Status(size_t)>& consume,
                          int threads = 0, int window = 0);

/// \brief A bounded blocking MPMC channel.
///
/// Backpressure primitive for push-driven pipelines (e.g. scans arriving
/// one at a time from a scanner): producers block (or TryPush fails) when
/// `capacity` items are queued, consumers block in Pop until an item
/// arrives or the channel is closed and drained.
///
/// To stay deadlock-free on the shared pool, in-tree pipeline code never
/// blocks in Push from a thread that is also responsible for consuming —
/// it uses TryPush and drains one item itself when the channel is full
/// (see mocoder::DecodeStream).
template <typename T>
class BoundedChannel {
 public:
  explicit BoundedChannel(size_t capacity)
      : capacity_(capacity > 0 ? capacity : 1) {}

  /// Enqueues if space is available; fails (returns false) when the
  /// channel is full or closed, leaving `item` untouched so the caller
  /// can retry or handle it locally. Never blocks.
  bool TryPush(T& item) {
    std::unique_lock<std::mutex> lock(mu_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until space is available; fails only when closed.
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Dequeues without blocking; nullopt when currently empty.
  std::optional<T> TryPop() {
    std::unique_lock<std::mutex> lock(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Blocks until an item arrives; nullopt once closed and drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;  // closed and drained
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Closes the channel: Push fails from now on, Pop drains what is left.
  void Close() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace ule

#endif  // ULE_SUPPORT_PARALLEL_H_
