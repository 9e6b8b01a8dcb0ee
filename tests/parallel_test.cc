// Tests for support/parallel.h: pool lifecycle and persistence, ParallelFor
// bounds and determinism, bounded channels, Status/exception propagation. Thread counts are passed explicitly so the
// concurrent paths are exercised even on small CI machines (where
// DefaultThreadCount() may be 1).

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/micr_olonys.h"
#include "dynarisc/assembler.h"
#include "olonys/dynarisc_in_verisc.h"
#include "olonys/translation_cache.h"
#include "support/parallel.h"
#include "verisc/machine.h"

namespace ule {
namespace {

TEST(ThreadCountTest, DefaultIsPositive) {
  EXPECT_GE(DefaultThreadCount(), 1);
}

TEST(ThreadCountTest, EnvOverrideWins) {
  // Restore the prior value afterwards: the TSan CI job runs this binary
  // with ULE_THREADS=4 and later tests must keep seeing that cap.
  const char* prior_raw = std::getenv("ULE_THREADS");
  const std::string prior = prior_raw != nullptr ? prior_raw : "";
  ASSERT_EQ(setenv("ULE_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(DefaultThreadCount(), 3);
  ASSERT_EQ(setenv("ULE_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(DefaultThreadCount(), 1);  // nonsense ignored
  if (prior_raw != nullptr) {
    ASSERT_EQ(setenv("ULE_THREADS", prior.c_str(), 1), 0);
  } else {
    ASSERT_EQ(unsetenv("ULE_THREADS"), 0);
  }
}

TEST(ThreadCountTest, ResolvePrefersExplicit) {
  EXPECT_EQ(ResolveThreadCount(7), 7);
  EXPECT_GE(ResolveThreadCount(0), 1);
  EXPECT_GE(ResolveThreadCount(-2), 1);
}

TEST(ThreadCountTest, ResolveClampsToPoolCap) {
  // Resolving a count starts no thread, so absurd knobs are safe to ask.
  EXPECT_EQ(ResolveThreadCount(100000), ThreadPool::kMaxThreads);
  EXPECT_EQ(ResolveThreadCount(ThreadPool::kMaxThreads),
            ThreadPool::kMaxThreads);
  const char* prior_raw = std::getenv("ULE_THREADS");
  const std::string prior = prior_raw != nullptr ? prior_raw : "";
  ASSERT_EQ(setenv("ULE_THREADS", "100000", /*overwrite=*/1), 0);
  EXPECT_EQ(ResolveThreadCount(0), ThreadPool::kMaxThreads);
  EXPECT_EQ(ResolveThreadCount(3), 3);  // an explicit knob still wins
  if (prior_raw != nullptr) {
    ASSERT_EQ(setenv("ULE_THREADS", prior.c_str(), 1), 0);
  } else {
    ASSERT_EQ(unsetenv("ULE_THREADS"), 0);
  }
}

// ---------------- ThreadPool lifecycle ----------------

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> count(0);
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ReusableAfterWait) {
  std::atomic<int> count(0);
  ThreadPool pool(2);
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> count(0);
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    // No Wait(): the destructor must still run everything already queued.
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // nothing submitted; must not hang
}

TEST(ThreadPoolTest, EnsureWorkersGrowsButNeverShrinks) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.thread_count(), 2);
  pool.EnsureWorkers(5);
  EXPECT_EQ(pool.thread_count(), 5);
  pool.EnsureWorkers(3);  // never shrinks
  EXPECT_EQ(pool.thread_count(), 5);
  std::atomic<int> count(0);
  for (int i = 0; i < 20; ++i) pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 20);
}

// ---------------- Shared pool persistence ----------------

TEST(SharedPoolTest, WorkersAndVeriscMachinesPersistAcrossStages) {
  // The pipeline's core scaling property: consecutive parallel stages run
  // on the same pool workers, and each worker's thread-local VeRisc
  // machine (a 4 MiB allocate-and-zero to construct) survives between
  // them. First warm every current pool worker — a barrier task per
  // worker, held until all have started, so each one constructs its
  // machine now if it never has.
  (void)verisc::ThreadLocalMachine();  // warm the calling thread
  ThreadPool& pool = SharedPool();
  pool.EnsureWorkers(4);
  const int workers = pool.thread_count();
  std::set<std::thread::id> warmed_ids{std::this_thread::get_id()};
  {
    std::mutex mu;
    std::condition_variable cv;
    int started = 0;
    for (int i = 0; i < workers; ++i) {
      pool.Submit([&] {
        (void)verisc::ThreadLocalMachine();
        std::unique_lock<std::mutex> lock(mu);
        warmed_ids.insert(std::this_thread::get_id());
        ++started;
        cv.notify_all();
        cv.wait(lock, [&] { return started >= workers; });
      });
    }
    pool.Wait();
  }
  ASSERT_EQ(static_cast<int>(warmed_ids.size()), workers + 1);

  const uint64_t machines_warmed = verisc::Machine::TotalConstructed();
  // A VeRisc program that halts immediately (ST to the halt port), so
  // every iteration genuinely exercises the thread's cached machine.
  verisc::Program halt;
  halt.words = {verisc::Instr(verisc::kSt, 5)};

  std::mutex mu;
  std::map<std::thread::id, const verisc::Machine*> stage1, stage2;
  auto run_stage =
      [&](std::map<std::thread::id, const verisc::Machine*>* seen) {
        Status s = ParallelFor(
            0, 64,
            [&](size_t) -> Status {
              auto r = verisc::Run(halt, {});
              if (!r.ok()) return r.status();
              std::unique_lock<std::mutex> lock(mu);
              (*seen)[std::this_thread::get_id()] =
                  &verisc::ThreadLocalMachine();
              return Status::OK();
            },
            4);
        ASSERT_TRUE(s.ok()) << s.ToString();
      };
  run_stage(&stage1);
  run_stage(&stage2);

  // No new threads, no new machines: both stages ran exclusively on the
  // warmed worker set, reusing each thread's cached machine.
  EXPECT_EQ(pool.thread_count(), workers);
  EXPECT_EQ(verisc::Machine::TotalConstructed(), machines_warmed);
  for (const auto& [tid, machine] : stage2) {
    EXPECT_TRUE(warmed_ids.count(tid) > 0) << "stage ran on an unknown thread";
    auto it = stage1.find(tid);
    if (it != stage1.end()) {
      EXPECT_EQ(machine, it->second)
          << "thread rebuilt its VeRisc machine between stages";
    }
  }
}

TEST(SharedPoolTest, NestedFanOutOnSaturatedPoolCompletes) {
  // Regression guard for the classic shared-pool deadlock: every outer
  // task blocks on inner parallelism while the pool is fully busy with
  // outer tasks. The caller-participates design must degrade to serial
  // execution instead of hanging.
  std::atomic<uint64_t> sum(0);
  Status s = ParallelFor(
      0, 8,
      [&](size_t) -> Status {
        return ParallelFor(
            0, 50, [&](size_t j) { sum.fetch_add(j); return Status::OK(); },
            4);
      },
      8);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(sum.load(), 8ull * (50 * 49 / 2));
}

// ---------------- ParallelFor ----------------

TEST(ParallelForTest, CoversExactRange) {
  std::vector<int> hits(64, 0);
  Status s = ParallelFor(
      3, 61, [&](size_t i) { hits[i] += 1; return Status::OK(); }, 4);
  ASSERT_TRUE(s.ok());
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], (i >= 3 && i < 61) ? 1 : 0) << i;
  }
}

TEST(ParallelForTest, EmptyAndReversedRangesAreNoOps) {
  int calls = 0;
  auto fn = [&](size_t) { ++calls; return Status::OK(); };
  EXPECT_TRUE(ParallelFor(5, 5, fn, 4).ok());
  EXPECT_TRUE(ParallelFor(9, 2, fn, 4).ok());
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, SingleWorkerIsSerialInOrder) {
  std::vector<size_t> order;
  Status s = ParallelFor(
      0, 10, [&](size_t i) { order.push_back(i); return Status::OK(); }, 1);
  ASSERT_TRUE(s.ok());
  std::vector<size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ParallelForTest, DeterministicResultSlots) {
  // Scheduling is free-form but per-index outputs must be stable.
  std::vector<uint64_t> out(500, 0);
  Status s = ParallelFor(
      0, out.size(),
      [&](size_t i) { out[i] = i * i + 1; return Status::OK(); }, 8);
  ASSERT_TRUE(s.ok());
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i + 1);
}

TEST(ParallelForTest, FirstFailingIndexWins) {
  Status s = ParallelFor(
      0, 100,
      [&](size_t i) -> Status {
        if (i == 7 || i == 93) {
          return Status::Corruption("bad " + std::to_string(i));
        }
        return Status::OK();
      },
      4);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_EQ(s.message(), "bad 7");
}

TEST(ParallelForTest, SerialPathStopsAtFirstFailure) {
  int ran = 0;
  Status s = ParallelFor(
      0, 100000,
      [&](size_t i) -> Status {
        ++ran;
        if (i == 2) return Status::InvalidArgument("stop");
        return Status::OK();
      },
      1);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(ran, 3);  // indices 0,1,2 — nothing after the failure
}

TEST(ParallelForTest, ExceptionPropagatesToCaller) {
  EXPECT_THROW(
      (void)ParallelFor(
          0, 50,
          [&](size_t i) -> Status {
            if (i == 11) throw std::runtime_error("boom");
            return Status::OK();
          },
          4),
      std::runtime_error);
}

TEST(ParallelForTest, ManyMoreItemsThanWorkers) {
  std::atomic<uint64_t> sum(0);
  Status s = ParallelFor(
      0, 10000, [&](size_t i) { sum.fetch_add(i); return Status::OK(); }, 3);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(sum.load(), 10000ull * 9999 / 2);
}

// ---------------- BoundedChannel ----------------

TEST(BoundedChannelTest, FifoAndCapacity) {
  BoundedChannel<int> ch(3);
  for (int i = 0; i < 3; ++i) {
    int v = i;
    EXPECT_TRUE(ch.TryPush(v));
  }
  int overflow = 99;
  EXPECT_FALSE(ch.TryPush(overflow));
  EXPECT_EQ(overflow, 99);  // failed TryPush leaves the item intact
  for (int i = 0; i < 3; ++i) {
    auto v = ch.TryPop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(ch.TryPop().has_value());
}

TEST(BoundedChannelTest, CloseDrainsThenEnds) {
  BoundedChannel<int> ch(4);
  int a = 1, b = 2;
  EXPECT_TRUE(ch.TryPush(a));
  EXPECT_TRUE(ch.TryPush(b));
  ch.Close();
  int c = 3;
  EXPECT_FALSE(ch.TryPush(c));
  EXPECT_EQ(ch.Pop().value(), 1);
  EXPECT_EQ(ch.Pop().value(), 2);
  EXPECT_FALSE(ch.Pop().has_value());  // closed and drained: no block
}

TEST(BoundedChannelTest, BlockingHandoffAcrossThreads) {
  // Smaller than the item count: the producer retries full pushes and the
  // consumer blocks in Pop whenever it empties the channel.
  BoundedChannel<int> ch(2);
  std::vector<int> received;
  std::thread consumer([&] {
    while (auto v = ch.Pop()) received.push_back(*v);
  });
  for (int i = 0; i < 100; ++i) {
    int item = i;
    while (!ch.TryPush(item)) std::this_thread::yield();
  }
  ch.Close();
  consumer.join();
  ASSERT_EQ(received.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(received[static_cast<size_t>(i)], i);
}

// ---------------- core-level parallel paths (fast TSan coverage) --------
// These live in the fast suite deliberately: the CI ThreadSanitizer job
// only runs `-L fast`, and the heavyweight end-to-end suites are the only
// other callers of the core fan-out (the streaming archive/restore
// pipeline on pool workers, per-thread VeRisc machines).

TEST(CoreParallelSmokeTest, ArchiveAndRestoreNativeUnderFanOut) {
  const std::string dump = "CREATE TABLE t (\n    a bigint\n);\n"
                           "COPY t (a) FROM stdin;\n1\n2\n3\n\\.\n";
  core::ArchiveOptions opt;
  opt.emblem.data_side = 65;  // small emblems: fast, several frames
  opt.emblem.threads = 4;
  filmstore::MemoryStore store;
  auto summary = core::ArchiveDumpStreaming(dump, opt, store);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  auto data = store.OpenFrames(mocoder::StreamId::kData);
  auto system = store.OpenFrames(mocoder::StreamId::kSystem);
  core::RestoreStats stats;
  auto restored =
      core::RestoreNativeStreaming(*data, system.get(), opt.emblem, &stats);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value(), dump);
}

TEST(CoreParallelSmokeTest, NestedEmulationFromPoolWorkers) {
  // The shape of the emulated restore's fan-out: concurrent RunNested
  // calls on pool workers, each using its own per-thread VeRisc machine.
  auto guest = dynarisc::Assemble(
      "loop: SYS #0\nJC done\nSYS #1\nJUMP loop\ndone: SYS #2");
  ASSERT_TRUE(guest.ok());
  const Bytes input{9, 8, 7};
  std::vector<Bytes> outputs(4);
  Status s = ParallelFor(
      0, outputs.size(),
      [&](size_t i) -> Status {
        ULE_ASSIGN_OR_RETURN(outputs[i],
                             olonys::RunNested(guest.value(), input));
        return Status::OK();
      },
      4);
  ASSERT_TRUE(s.ok()) << s.ToString();
  for (const Bytes& out : outputs) EXPECT_EQ(out, input);
}

TEST(CoreParallelSmokeTest, SharedTranslationCacheUnderContention) {
  // Workers acquiring translations of several guests concurrently: misses
  // race to insert, hits splice the LRU, and a capacity below the working
  // set forces eviction under load. The TSan CI job runs this at 4
  // threads to police the shared-cache locking.
  std::vector<dynarisc::Program> guests;
  for (int g = 0; g < 3; ++g) {
    auto p = dynarisc::Assemble("LDI R0,#" + std::to_string(10 + g) +
                                "\nSYS #1\nSYS #2");
    ASSERT_TRUE(p.ok());
    guests.push_back(p.TakeValue());
  }
  auto& cache = olonys::TranslationCache::Global();
  cache.Clear();
  cache.set_capacity(2);
  Status s = ParallelFor(
      0, 24,
      [&](size_t i) -> Status {
        const size_t g = i % guests.size();
        olonys::NestedRunStats stats;
        ULE_ASSIGN_OR_RETURN(
            Bytes out,
            olonys::RunNested(guests[g], {}, {}, &verisc::Run,
                              olonys::NestedMode::kTranslated, &stats));
        const Bytes expected{static_cast<uint8_t>(10 + g)};
        if (out != expected || !stats.translated) {
          return Status::ExecutionFault("wrong nested output under contention");
        }
        return Status::OK();
      },
      4);
  cache.set_capacity(8);
  cache.Clear();
  ASSERT_TRUE(s.ok()) << s.ToString();
}

}  // namespace
}  // namespace ule
