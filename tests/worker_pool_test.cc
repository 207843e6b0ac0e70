// The crypto worker-pool seam (Host::submit, host/worker_pool.h, DESIGN.md
// §12):
//
//  * Host::submit's inline default runs job then continuation synchronously
//    on the caller — the sequencing the deterministic simulator keeps;
//  * rt::ThreadHost's real pool runs jobs on pool threads but posts every
//    continuation back to the OWNER's sequential executor — the invariant
//    that keeps protocol objects lock-free;
//  * unbind (node crash) while a job is in flight drops the completion,
//    exactly like an in-flight message to a crashed node — and a rebound
//    incarnation under the same id must NOT receive completions from its
//    predecessor's jobs (the bind-generation guard);
//  * stop() racing concurrent submitters neither hangs nor crashes;
//  * the metrics shards pool threads record into are striped per thread
//    (obs::Histogram::thread_shard_slot), so concurrent recorders land on
//    distinct cache lines and no sample is lost in the aggregation.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "host/host.h"
#include "obs/metrics.h"
#include "rt/runtime.h"
#include "sim/sim_host.h"

namespace scab {
namespace {

/// Minimal owner endpoint: the pool contract only needs a bound node whose
/// executor receives the continuations.
struct Sink final : host::Node {
  void on_message(host::NodeId, BytesView) override {}
};

/// Polls `pred` for up to 5 s.  The pool has no flush(); completion is
/// observable only through the owner's executor side effects.
template <typename Pred>
bool eventually(Pred&& pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// The deterministic simulator's host, which keeps Host::submit's inline
/// default.
struct InlinePool {
  sim::Simulator sim;
  sim::Network net{sim, sim::NetworkProfile::ideal()};
  sim::SimHost host{net};
};

TEST(WorkerPoolInline, DefaultRunsJobThenContinuationSynchronously) {
  InlinePool inline_pool;
  host::Host& pool = inline_pool.host;
  EXPECT_EQ(pool.pool_threads(), 0u);

  std::vector<int> order;
  pool.submit(1, [&order]() -> std::function<void()> {
    order.push_back(1);  // job body
    return [&order] { order.push_back(2); };
  });
  // Caller IS the owner's executor: both halves already ran, in order.
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(WorkerPoolInline, EmptyJobAndEmptyContinuationAreNoOps) {
  InlinePool inline_pool;
  host::Host& pool = inline_pool.host;
  pool.submit(1, nullptr);  // must not crash
  bool ran = false;
  pool.submit(1, [&ran]() -> std::function<void()> {
    ran = true;
    return nullptr;  // nothing to post back
  });
  EXPECT_TRUE(ran);
}

TEST(WorkerPoolThreads, ZeroThreadsRunsInlineOnCaller) {
  rt::ThreadHost host(nullptr, nullptr, /*pool_threads=*/0);
  EXPECT_EQ(host.pool_threads(), 0u);
  Sink sink;
  host.bind(1, &sink);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> same_thread{false};
  host.submit(1, [&same_thread, caller]() -> std::function<void()> {
    const bool job_inline = std::this_thread::get_id() == caller;
    return [&same_thread, job_inline, caller] {
      same_thread = job_inline && std::this_thread::get_id() == caller;
    };
  });
  EXPECT_TRUE(same_thread.load());
  host.stop();
}

TEST(WorkerPoolThreads, CompletionsRunSequentiallyOnOwnerExecutor) {
  rt::ThreadHost host(nullptr, nullptr, /*pool_threads=*/4);
  EXPECT_EQ(host.pool_threads(), 4u);
  Sink sink;
  host.bind(1, &sink);

  constexpr int kJobs = 64;
  // Written ONLY from continuations.  If every continuation really runs on
  // node 1's sequential executor these need no synchronization; TSan is
  // the second half of this assertion (tests/CMakePresets tsan preset).
  struct State {
    int completed = 0;
    std::set<std::thread::id> continuation_threads;
    std::set<std::thread::id> job_threads_seen_by_cont;
  };
  auto st = std::make_shared<State>();
  std::atomic<int> done{0};

  // submit() from the owner's own executor, per the contract.
  host.post(1, [&host, st, &done] {
    for (int i = 0; i < kJobs; ++i) {
      host.submit(1, [st, &done]() -> std::function<void()> {
        const auto job_tid = std::this_thread::get_id();
        return [st, &done, job_tid] {
          st->continuation_threads.insert(std::this_thread::get_id());
          st->job_threads_seen_by_cont.insert(job_tid);
          ++st->completed;
          done.fetch_add(1, std::memory_order_release);
        };
      });
    }
  });

  ASSERT_TRUE(eventually([&] {
    return done.load(std::memory_order_acquire) == kJobs;
  }));
  host.stop();  // joins: State is now quiescent
  EXPECT_EQ(st->completed, kJobs);
  // All continuations on ONE thread (the owner's worker)...
  EXPECT_EQ(st->continuation_threads.size(), 1u);
  // ...which is not a pool thread: with 4 pool workers and 64 jobs, at
  // least one job ran off the owner's thread.
  EXPECT_GT(st->job_threads_seen_by_cont.size(), 0u);
  EXPECT_EQ(st->job_threads_seen_by_cont.count(
                *st->continuation_threads.begin()),
            0u);
}

/// Copyable gate a PoolJob can park on (PoolJob is a std::function, so
/// captures must be copyable — hence shared_ptr state).
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  void release() {
    std::lock_guard<std::mutex> lk(mu);
    open = true;
    cv.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [this] { return open; });
  }
};

TEST(WorkerPoolThreads, UnbindDropsInFlightCompletions) {
  rt::ThreadHost host(nullptr, nullptr, /*pool_threads=*/2);
  Sink sink;
  host.bind(1, &sink);

  auto gate = std::make_shared<Gate>();
  auto started = std::make_shared<std::atomic<bool>>(false);
  auto executed = std::make_shared<std::atomic<bool>>(false);
  host.submit(1, [gate, started, executed]() -> std::function<void()> {
    started->store(true);
    gate->wait();  // hold the job in flight until after the unbind
    return [executed] { executed->store(true); };
  });
  ASSERT_TRUE(eventually([&] { return started->load(); }));

  host.unbind(1);  // node crash: bumps the bind generation
  gate->release();

  // The completion must be discarded, not delivered to a dead node.  Give
  // the pool ample time to (wrongly) deliver before asserting.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(executed->load());
  host.stop();
}

TEST(WorkerPoolThreads, RebindDoesNotReceivePredecessorsCompletions) {
  rt::ThreadHost host(nullptr, nullptr, /*pool_threads=*/2);
  Sink incarnation_a;
  host.bind(1, &incarnation_a);

  auto gate = std::make_shared<Gate>();
  auto started = std::make_shared<std::atomic<bool>>(false);
  auto stale_executed = std::make_shared<std::atomic<bool>>(false);
  host.submit(1, [gate, started, stale_executed]() -> std::function<void()> {
    started->store(true);
    gate->wait();
    return [stale_executed] { stale_executed->store(true); };
  });
  ASSERT_TRUE(eventually([&] { return started->load(); }));

  // Restart under the same id (what Cluster::restart_replica rides on).
  host.unbind(1);
  Sink incarnation_b;
  host.bind(1, &incarnation_b);
  gate->release();

  // The NEW incarnation's own pool traffic must flow normally...
  std::atomic<bool> fresh_executed{false};
  host.submit(1, [&fresh_executed]() -> std::function<void()> {
    return [&fresh_executed] { fresh_executed.store(true); };
  });
  ASSERT_TRUE(eventually([&] { return fresh_executed.load(); }));
  // ...while the predecessor's completion stays dropped.
  EXPECT_FALSE(stale_executed->load());
  host.stop();
}

TEST(WorkerPoolThreads, StopRacingSubmittersDoesNotHangOrCrash) {
  for (int round = 0; round < 8; ++round) {
    auto host = std::make_unique<rt::ThreadHost>(nullptr, nullptr, 2);
    Sink sink;
    host->bind(1, &sink);
    std::atomic<bool> quit{false};
    std::thread submitter([&] {
      while (!quit.load(std::memory_order_relaxed)) {
        host->submit(1, []() -> std::function<void()> {
          return [] { /* completion may or may not run; must not crash */ };
        });
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(round));
    host->stop();  // races the submitter mid-push
    quit.store(true);
    submitter.join();
    host.reset();  // destruction after stop must be clean too
  }
}

TEST(WorkerPoolSharding, HistogramShardSlotsAreStablePerThreadAndDistinct) {
  constexpr int kThreads = 8;  // == Histogram's shard count
  std::vector<std::size_t> slot(kThreads);
  // int, not bool: vector<bool> packs bits, and concurrent writers to
  // adjacent elements would race on the shared byte.
  std::vector<int> stable(kThreads, 0);
  std::vector<std::thread> threads;
  obs::Histogram hist;
  constexpr int kSamplesPerThread = 1000;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &slot, &stable, &hist] {
      slot[t] = obs::Histogram::thread_shard_slot();
      // Stable across calls and across record() traffic on this thread.
      bool ok = true;
      for (int i = 0; i < kSamplesPerThread; ++i) {
        hist.record(static_cast<uint64_t>(i + 1));
        ok = ok && obs::Histogram::thread_shard_slot() == slot[t];
      }
      stable[t] = ok;
    });
  }
  for (auto& th : threads) th.join();

  // Slots are assigned round-robin by first touch, so 8 fresh threads get
  // 8 DISTINCT slots (mod 8) — every concurrent recorder on its own
  // cache-line-aligned shard, which is the contention structure that makes
  // pool-thread metrics cheap.
  std::set<std::size_t> distinct(slot.begin(), slot.end());
  EXPECT_EQ(distinct.size(), static_cast<std::size_t>(kThreads));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(stable[t]) << "thread " << t << " changed shard mid-life";
    EXPECT_LT(slot[t], 8u);
  }
  // Aggregation across shards loses nothing.
  EXPECT_EQ(hist.count(),
            static_cast<uint64_t>(kThreads) * kSamplesPerThread);
  EXPECT_EQ(hist.min(), 1u);
  EXPECT_EQ(hist.max(), static_cast<uint64_t>(kSamplesPerThread));
}

}  // namespace
}  // namespace scab
