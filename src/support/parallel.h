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
///     semantics, the one fan-out primitive: both streaming directions
///     (mocoder::EncodeToSink, mocoder::DecodeStream) are built on it;
///   * `BoundedChannel<T>` — a small MPMC queue for pull-driven pipelines
///     whose item count is not known up front.
///
/// Determinism contract: workers claim indices from a shared counter, so
/// *scheduling* is nondeterministic, but callers write results into
/// per-index slots (or hand them on in index order themselves, as
/// EncodeToSink does), which makes the observable output identical to a
/// serial run. On failure, the
/// status (or exception) of the lowest failing index wins, matching what
/// a serial loop would have reported first; unstarted iterations above
/// the lowest recorded failing index may be skipped (indices below it
/// always still run — one of them could be the serial loop's failure).
///
/// Deadlock freedom: the calling thread always claims indices of its own
/// call, so every call completes even when the shared pool is saturated —
/// nested fan-out from inside a pool worker degrades to the serial loop
/// instead of waiting for workers that will never come. Helper tasks
/// drain a finite claim counter and add no waits of their own. Indices
/// are claimed in increasing order, so a callback may wait for the
/// callbacks of lower indices (every one of them is already running or
/// done), never for higher ones.
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
/// DefaultThreadCount(), clamped to [1, ThreadPool::kMaxThreads]. Every
/// worker count in the pipeline comes from here.
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

/// \brief The process-wide persistent pool used by ParallelFor and so by
/// the streaming emblem pipeline.
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
///
/// Claim order: indices are claimed one at a time in increasing order,
/// and a claimed index runs at once on the thread that claimed it. So
/// when `fn(i)` starts, every `fn(j)` with j < i has started on a thread
/// that is still running it or has finished it: `fn(i)` may block until
/// lower indices progress (mocoder::EncodeToSink's in-order window relies
/// on this), but must never wait for a higher index.
Status ParallelFor(size_t begin, size_t end,
                   const std::function<Status(size_t)>& fn, int threads = 0);

/// \brief A bounded MPMC channel.
///
/// Backpressure primitive for pipelines fed one item at a time (e.g.
/// scans pulled from a scanner): TryPush fails when `capacity` items are
/// queued, consumers block in Pop until an item arrives or the channel is
/// closed and drained.
///
/// There is deliberately no blocking push: a producer that is also
/// responsible for consuming would deadlock on a saturated pool. On a
/// full channel the producer drains one item itself and retries (see
/// mocoder::DecodeStream).
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

  /// Dequeues without blocking; nullopt when currently empty.
  std::optional<T> TryPop() {
    std::unique_lock<std::mutex> lock(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Blocks until an item arrives; nullopt once closed and drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;  // closed and drained
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Closes the channel: TryPush fails from now on, Pop drains what is
  /// left.
  void Close() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  std::mutex mu_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace ule

#endif  // ULE_SUPPORT_PARALLEL_H_
