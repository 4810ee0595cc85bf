// Tests for the work-stealing executor and its use as a virtual target.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/spin_wait.hpp"
#include "common/sync.hpp"
#include "core/runtime.hpp"
#include "core/target.hpp"
#include "executor/work_stealing_executor.hpp"

namespace evmp::exec {

struct WorkStealingTestAccess {
  static std::atomic<bool>& injection_lock(WorkStealingExecutor& pool) {
    return pool.injection_busy_;
  }
};

namespace {

TEST(WorkStealing, PostBatchRunsAllTasks) {
  WorkStealingExecutor pool("ws", 3);
  std::atomic<int> count{0};
  common::CountdownLatch latch(100);
  std::vector<Task> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.emplace_back([&] {
      count.fetch_add(1);
      latch.count_down();
    });
  }
  pool.post_batch(tasks);
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{10}));
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(pool.batch_posts(), 1u);
}

TEST(WorkStealing, PostBatchAfterShutdownIsDropped) {
  WorkStealingExecutor pool("ws", 1);
  pool.shutdown();
  std::atomic<bool> ran{false};
  std::vector<Task> tasks;
  tasks.emplace_back([&] { ran.store(true); });
  pool.post_batch(tasks);
  // shutdown() joined every worker: nothing can run it later.
  EXPECT_FALSE(ran.load());
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(WorkStealing, RunsAllTasks) {
  WorkStealingExecutor pool("ws", 3);
  std::atomic<int> count{0};
  common::CountdownLatch latch(200);
  for (int i = 0; i < 200; ++i) {
    pool.post([&] {
      count.fetch_add(1);
      latch.count_down();
    });
  }
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{10}));
  EXPECT_EQ(count.load(), 200);
  EXPECT_EQ(pool.concurrency(), 3u);
}

TEST(WorkStealing, MemberThreadsAreOwned) {
  WorkStealingExecutor pool("ws", 2);
  std::atomic<bool> member{false};
  common::CountdownLatch latch(1);
  pool.post([&] {
    member.store(pool.owns_current_thread());
    latch.count_down();
  });
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{5}));
  EXPECT_TRUE(member.load());
  EXPECT_FALSE(pool.owns_current_thread());
}

TEST(WorkStealing, RecursiveSpawnDoesNotDeadlock) {
  // Tasks that spawn subtasks and wait for them via try_run_one (helping):
  // the pattern nested target blocks produce.
  WorkStealingExecutor pool("ws", 2);
  std::atomic<int> leaves{0};
  common::CountdownLatch latch(4);
  for (int i = 0; i < 4; ++i) {
    pool.post([&] {
      CompletionRef state = CompletionState::make();
      pool.post([&, state] {
        leaves.fetch_add(1);
        state->set_done();
      });
      while (!state->done()) {
        if (!pool.try_run_one()) std::this_thread::yield();
      }
      latch.count_down();
    });
  }
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{10}));
  EXPECT_EQ(leaves.load(), 4);
}

TEST(WorkStealing, StealsWhenOneWorkerIsBusy) {
  WorkStealingExecutor pool("ws", 2);
  common::ManualResetEvent release;
  common::CountdownLatch started(1);
  common::CountdownLatch spawned_done(8);
  // Occupy one worker, then have it self-post (LIFO-local) tasks the other
  // worker must steal.
  pool.post([&] {
    started.count_down();
    for (int i = 0; i < 8; ++i) {
      pool.post([&] { spawned_done.count_down(); });
    }
    release.wait();
  });
  ASSERT_TRUE(started.wait_for(std::chrono::seconds{5}));
  ASSERT_TRUE(spawned_done.wait_for(std::chrono::seconds{10}));
  EXPECT_GE(pool.steals(), 1u);
  release.set();
}

TEST(WorkStealing, ForeignTryRunOneHelps) {
  WorkStealingExecutor pool("ws", 1);
  common::ManualResetEvent release;
  common::CountdownLatch started(1);
  pool.post([&] {
    started.count_down();
    release.wait();
  });
  ASSERT_TRUE(started.wait_for(std::chrono::seconds{5}));
  std::atomic<bool> ran{false};
  pool.post([&] { ran.store(true); });
  EXPECT_TRUE(pool.try_run_one());  // foreign thread steals the queued task
  EXPECT_TRUE(ran.load());
  EXPECT_FALSE(pool.try_run_one());  // nothing left queued
  release.set();
}

TEST(WorkStealing, ShutdownDrainsAllQueues) {
  std::atomic<int> count{0};
  {
    WorkStealingExecutor pool("ws", 3);
    for (int i = 0; i < 100; ++i) {
      pool.post([&] { count.fetch_add(1); });
    }
    std::vector<Task> tasks;
    for (int i = 0; i < 50; ++i) {
      tasks.emplace_back([&] { count.fetch_add(1); });
    }
    pool.post_batch(tasks);
    pool.shutdown();
  }
  EXPECT_EQ(count.load(), 150);
}

TEST(WorkStealing, PostAfterShutdownIsDropped) {
  WorkStealingExecutor pool("ws", 1);
  pool.shutdown();
  std::atomic<bool> ran{false};
  pool.post([&] { ran.store(true); });
  // shutdown() joined every worker: nothing can run it later.
  EXPECT_FALSE(ran.load());
  EXPECT_EQ(pool.pending(), 0u);
  EXPECT_FALSE(pool.try_post([&] { ran.store(true); }));
}

TEST(WorkStealing, PostsRacingShutdownAreRunOrRefusedNeverLost) {
  // Foreign producers hammer try_post() while shutdown() closes the pool.
  // Each task is either run or refused with `false`; none is lost, none
  // runs twice. Every task holds a copy of `token`, so its use count
  // proves each task object — run or refused — was destroyed, i.e. no
  // queued node leaked.
  constexpr int kProducers = 4;
  for (int round = 0; round < 20; ++round) {
    WorkStealingExecutor pool("ws.race", 2);
    auto token = std::make_shared<int>(0);
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> ran{0};
    std::atomic<bool> shut{false};
    std::vector<std::jthread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&] {
        // Until refused — or, should the pool keep accepting, until
        // shutdown() has returned.
        while (!shut.load(std::memory_order_acquire)) {
          Task task([&ran, token] { ran.fetch_add(1); });
          if (!pool.try_post(std::move(task))) break;
          accepted.fetch_add(1);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100 * (round % 5)));
    pool.shutdown();
    shut.store(true, std::memory_order_release);
    producers.clear();
    EXPECT_EQ(ran.load(), accepted.load()) << "round " << round;
    EXPECT_EQ(token.use_count(), 1) << "round " << round;
    EXPECT_EQ(pool.pending(), 0u) << "round " << round;
  }
}

TEST(WorkStealing, ZeroThreadsClampedToOne) {
  WorkStealingExecutor pool("ws", 0);
  EXPECT_EQ(pool.concurrency(), 1u);
}

TEST(WorkStealing, CurrentIsThePoolInsideTasks) {
  WorkStealingExecutor pool("ws", 1);
  Executor* observed = nullptr;
  common::CountdownLatch latch(1);
  pool.post([&] {
    observed = Executor::current();
    latch.count_down();
  });
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{5}));
  EXPECT_EQ(observed, &pool);
  EXPECT_EQ(Executor::current(), nullptr);
}

TEST(WorkStealing, OneThreadPostBatchRunsInSubmissionOrder) {
  // A foreign burst is spliced into the injection queue in order, and one
  // worker takes it front to back: the same as N posts.
  WorkStealingExecutor pool("ws", 1);
  std::vector<int> order;
  common::CountdownLatch latch(20);
  std::vector<Task> tasks;
  for (int i = 0; i < 20; ++i) {
    tasks.emplace_back([&, i] {
      order.push_back(i);  // single worker: no race
      latch.count_down();
    });
  }
  pool.post_batch(tasks);
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{5}));
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
  pool.shutdown();  // counter increments after the task body returns
  EXPECT_EQ(pool.tasks_executed(), 20u);
}

TEST(WorkStealing, ShutdownDuringTheSpinWindowIsPrompt) {
  // An idle worker stays awake probing the queues through the spin window
  // before it parks. A worker still in its window must see shutdown() by
  // itself and exit, not wait for a wake it will never get. Sweep the
  // shutdown across the window.
  const auto window = common::SpinWait::window();
  for (int round = 0; round < 60; ++round) {
    WorkStealingExecutor pool("ws.window", 2);
    std::atomic<bool> ran{false};
    pool.post([&ran] { ran.store(true); });
    while (!ran.load()) std::this_thread::yield();
    const auto offset = window * (round % 12) / 10;
    const auto until = std::chrono::steady_clock::now() + offset;
    while (std::chrono::steady_clock::now() < until) {
      std::this_thread::yield();  // a worker may share this CPU
    }
    const auto begin = std::chrono::steady_clock::now();
    pool.shutdown();
    EXPECT_LT(std::chrono::steady_clock::now() - begin,
              std::chrono::seconds(1))
        << "round " << round;
  }
}

TEST(WorkStealing, ManyForeignProducers) {
  WorkStealingExecutor pool("ws", 4);
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 200;
  common::CountdownLatch latch(kProducers * kPerProducer);
  {
    std::vector<std::jthread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&] {
        for (int i = 0; i < kPerProducer; ++i) {
          pool.post([&] { latch.count_down(); });
        }
      });
    }
  }
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{30}));
  pool.shutdown();
  EXPECT_EQ(pool.tasks_executed(),
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
  EXPECT_EQ(pool.queue_stats().pushes,
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
}

TEST(WorkStealing, WorksAsVirtualTarget) {
  Runtime rt;
  auto& pool = rt.create_stealing_worker("ws-worker", 2);
  std::atomic<bool> on_pool{false};
  rt.target("ws-worker").run([&] { on_pool.store(pool.owns_current_thread()); });
  EXPECT_TRUE(on_pool.load());

  // await on a member thread uses stealing to make progress.
  std::atomic<int> done{0};
  common::CountdownLatch latch(1);
  rt.target("ws-worker").nowait([&] {
    rt.target("ws-worker").await([&] { done.fetch_add(1); });
    done.fetch_add(1);
    latch.count_down();
  });
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{10}));
  EXPECT_EQ(done.load(), 2);
  rt.clear();
}

TEST(WorkStealing, CountersAccount) {
  WorkStealingExecutor pool("ws", 2);
  common::CountdownLatch latch(50);
  for (int i = 0; i < 50; ++i) {
    pool.post([&] { latch.count_down(); });
  }
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{10}));
  pool.shutdown();
  EXPECT_EQ(pool.tasks_executed(), 50u);
  // Foreign posts arrive via the injection queue; worker-local spawn would
  // show up as local pops or steals. Every executed task is attributed to
  // exactly one source.
  EXPECT_EQ(pool.local_pops() + pool.steals() + pool.injection_pops(), 50u);
}

TEST(WorkStealing, WorkerSelfPostsUseOwnDeque) {
  // A task that spawns children from a worker thread must push them to its
  // own Chase–Lev deque (local pops / steals), not the injection queue.
  WorkStealingExecutor pool("ws", 2);
  common::CountdownLatch latch(9);
  pool.post([&] {
    for (int i = 0; i < 8; ++i) {
      pool.post([&] { latch.count_down(); });
    }
    latch.count_down();
  });
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{10}));
  pool.shutdown();
  EXPECT_EQ(pool.tasks_executed(), 9u);
  EXPECT_EQ(pool.injection_pops(), 1u);  // only the foreign seeding post
  EXPECT_EQ(pool.local_pops() + pool.steals(), 8u);
}

TEST(WorkStealing, WorkersDoNotParkBehindABusyInjectionLock) {
  // A consumer holding the injection try-lock (say, a foreign try_run_one
  // helper mid-pop) may drop it with nodes still queued and no post left
  // to notify anyone. Workers that lost the try-lock while going idle must
  // therefore not park on it: once the holder leaves, they take the node.
  WorkStealingExecutor pool("ws", 2);
  std::atomic<bool>& lock = WorkStealingTestAccess::injection_lock(pool);
  bool free = false;
  ASSERT_TRUE(lock.compare_exchange_strong(free, true));
  std::atomic<bool> ran{false};
  pool.post([&] { ran.store(true); });
  // Long enough for both workers to wake, lose the try-lock, run out
  // their spin ladder and reach the parking re-check.
  std::this_thread::sleep_for(std::chrono::milliseconds{20});
  EXPECT_FALSE(ran.load());
  lock.store(false, std::memory_order_release);  // leave without popping
  for (int i = 0; i < 5000 && !ran.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  EXPECT_TRUE(ran.load());
  pool.shutdown();
}

TEST(WorkStealing, ForeignProducersAndHelperRaceParkedWorkers) {
  // Four foreign producers feed the injection queue in bursts with pauses
  // long enough for the workers to park in between, while a foreign
  // try_run_one() helper competes for the consumer try-lock. Every task
  // runs exactly once — none stranded behind a parked pool or a helper
  // that dropped the lock — and each is attributed to exactly one source.
  constexpr int kProducers = 4;
  constexpr int kBursts = 50;
  constexpr int kPerBurst = 40;
  constexpr int kTasks = kProducers * kBursts * kPerBurst;
  auto runs = std::make_unique<std::atomic<int>[]>(kTasks);
  std::atomic<int> done{0};
  std::atomic<bool> producing{true};
  WorkStealingExecutor pool("ws", 3);
  {
    std::jthread helper([&] {
      while (producing.load(std::memory_order_acquire)) {
        if (!pool.try_run_one()) std::this_thread::yield();
      }
    });
    std::vector<std::jthread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        std::vector<Task> batch;
        for (int b = 0; b < kBursts; ++b) {
          for (int i = 0; i < kPerBurst; ++i) {
            const int id = (p * kBursts + b) * kPerBurst + i;
            Task task([&, id] {
              runs[id].fetch_add(1, std::memory_order_relaxed);
              done.fetch_add(1, std::memory_order_release);
            });
            if (b % 2 == 0) {
              pool.post(std::move(task));
            } else {
              batch.push_back(std::move(task));
            }
          }
          if (!batch.empty()) {
            pool.post_batch(batch);
            batch.clear();
          }
          if (b % 10 == 9) {
            std::this_thread::sleep_for(std::chrono::milliseconds{2});
          }
        }
      });
    }
    producers.clear();
    producing.store(false, std::memory_order_release);
  }
  // The helper is gone too: whatever is left, the workers alone must run
  // — before shutdown, so nothing relies on the shutdown drain.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds{30};
  while (done.load(std::memory_order_acquire) < kTasks &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  ASSERT_EQ(done.load(), kTasks);
  pool.shutdown();
  int wrong = 0;
  for (int i = 0; i < kTasks; ++i) {
    if (runs[i].load() != 1) ++wrong;
  }
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(pool.tasks_executed(), static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(pool.local_pops() + pool.steals() + pool.injection_pops(),
            static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(UnhandledHook, ReceivesFireAndForgetExceptions) {
  static std::atomic<int> hook_hits{0};
  hook_hits.store(0);  // the static outlives a --gtest_repeat pass
  auto prev = unhandled_exception_hook();
  set_unhandled_exception_hook(
      [](std::string_view, std::exception_ptr) { hook_hits.fetch_add(1); });
  {
    WorkStealingExecutor pool("ws", 1);
    pool.post([] { throw std::runtime_error("unhandled"); });
    pool.shutdown();
  }
  set_unhandled_exception_hook(prev);
  EXPECT_EQ(hook_hits.load(), 1);
}

}  // namespace
}  // namespace evmp::exec
