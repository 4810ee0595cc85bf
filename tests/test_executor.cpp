// Unit tests for the executor substrate: UniqueFunction, CompletionState /
// TaskHandle and the simulated accelerator device, plus the causal-FIFO
// guarantee of every concurrency-1 executor (a one-thread pool,
// event::EventLoop). The pool itself is tested in test_work_stealing.cpp.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/sync.hpp"
#include "event/event_loop.hpp"
#include "executor/completion.hpp"
#include "executor/executor.hpp"
#include "executor/simulated_device.hpp"
#include "executor/unique_function.hpp"
#include "executor/work_stealing_executor.hpp"

namespace evmp::exec {
namespace {

TEST(UniqueFunction, EmptyIsFalse) {
  UniqueFunction<void()> f;
  EXPECT_FALSE(static_cast<bool>(f));
}

TEST(UniqueFunction, InvokesAndReturns) {
  UniqueFunction<int(int)> f = [](int x) { return x * 2; };
  EXPECT_EQ(f(21), 42);
}

TEST(UniqueFunction, HoldsMoveOnlyCapture) {
  auto p = std::make_unique<int>(9);
  UniqueFunction<int()> f = [p = std::move(p)] { return *p; };
  EXPECT_EQ(f(), 9);
}

TEST(UniqueFunction, MoveTransfersOwnership) {
  UniqueFunction<int()> f = [] { return 1; };
  UniqueFunction<int()> g = std::move(f);
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(g));
  EXPECT_EQ(g(), 1);
}

// --- small-buffer optimization boundary ---------------------------------

template <std::size_t N>
struct SizedCallable {
  unsigned char payload[N];
  explicit SizedCallable(unsigned char fill) { payload[0] = fill; }
  int operator()() const { return payload[0]; }
};

TEST(UniqueFunction, CallableAtCapacityStaysInline) {
  constexpr auto kCap = UniqueFunction<int()>::kInlineCapacity;
  UniqueFunction<int()> f = SizedCallable<kCap>(7);
  EXPECT_TRUE(f.is_inline());
  EXPECT_EQ(f(), 7);
}

TEST(UniqueFunction, CallableOverCapacityGoesToHeap) {
  constexpr auto kCap = UniqueFunction<int()>::kInlineCapacity;
  UniqueFunction<int()> f = SizedCallable<kCap + 1>(9);
  EXPECT_FALSE(f.is_inline());
  EXPECT_EQ(f(), 9);
}

TEST(UniqueFunction, ThrowingMoveFallsBackToHeap) {
  struct ThrowingMove {
    ThrowingMove() = default;
    ThrowingMove(ThrowingMove&&) noexcept(false) {}
    int operator()() const { return 3; }
  };
  UniqueFunction<int()> f = ThrowingMove{};
  EXPECT_FALSE(f.is_inline());  // SBO relocation must be noexcept
  EXPECT_EQ(f(), 3);
}

TEST(UniqueFunction, InlineMovePreservesCallableState) {
  // Straddle the boundary from both sides and move repeatedly: the inline
  // copy must relocate the payload, the heap copy only its pointer.
  constexpr auto kCap = UniqueFunction<int()>::kInlineCapacity;
  UniqueFunction<int()> small = SizedCallable<kCap - 8>(21);
  UniqueFunction<int()> big = SizedCallable<kCap + 8>(42);
  for (int i = 0; i < 4; ++i) {
    UniqueFunction<int()> s2 = std::move(small);
    small = std::move(s2);
    UniqueFunction<int()> b2 = std::move(big);
    big = std::move(b2);
  }
  EXPECT_TRUE(small.is_inline());
  EXPECT_FALSE(big.is_inline());
  EXPECT_EQ(small(), 21);
  EXPECT_EQ(big(), 42);
}

TEST(UniqueFunction, DestroysInlineCaptureExactlyOnce) {
  struct Counter {
    int* live;
    explicit Counter(int* p) : live(p) { ++*live; }
    Counter(const Counter& o) : live(o.live) { ++*live; }
    Counter(Counter&& o) noexcept : live(o.live) { ++*live; }
    ~Counter() { --*live; }
    void operator()() const {}
  };
  int live = 0;
  {
    UniqueFunction<void()> f = Counter(&live);
    ASSERT_TRUE(f.is_inline());
    EXPECT_GE(live, 1);
    UniqueFunction<void()> g = std::move(f);
    g();
  }
  EXPECT_EQ(live, 0);
}

TEST(CompletionState, WaitAfterDoneReturnsImmediately) {
  CompletionState s;
  s.set_done();
  s.wait();
  EXPECT_TRUE(s.done());
  EXPECT_FALSE(s.failed());
}

TEST(CompletionState, WaitForTimesOutWhenPending) {
  CompletionState s;
  EXPECT_FALSE(s.wait_for(std::chrono::milliseconds{2}));
}

TEST(CompletionState, ExceptionRethrownAtWait) {
  CompletionState s;
  s.set_exception(std::make_exception_ptr(std::runtime_error("boom")));
  EXPECT_TRUE(s.failed());
  EXPECT_THROW(s.wait(), std::runtime_error);
  // Every join observes the same exception.
  EXPECT_THROW(s.rethrow_if_error(), std::runtime_error);
}

TEST(TaskHandle, EmptyHandleIsDone) {
  TaskHandle h;
  EXPECT_FALSE(h.valid());
  EXPECT_TRUE(h.done());
  h.wait();  // no-op
  EXPECT_TRUE(h.wait_for(std::chrono::milliseconds{1}));
}

TEST(TaskHandle, CrossThreadWait) {
  CompletionRef state = CompletionState::make();
  TaskHandle h(state);
  EXPECT_FALSE(h.done());
  std::jthread t([state] {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
    state->set_done();
  });
  h.wait();
  EXPECT_TRUE(h.done());
}

TEST(SimulatedDevice, CountsTransfersAndLaunches) {
  SimulatedDeviceExecutor::Config cfg;
  cfg.launch_latency = common::Micros{100};
  cfg.bandwidth_bytes_per_sec = 1e9;
  SimulatedDeviceExecutor dev("device:0", 0, cfg);
  EXPECT_EQ(dev.device_id(), 0);
  dev.transfer_to_device(1'000'000);
  dev.transfer_from_device(500);
  common::CountdownLatch latch(2);
  dev.post([&] { latch.count_down(); });
  dev.post([&] { latch.count_down(); });
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{5}));
  EXPECT_EQ(dev.bytes_to_device(), 1'000'000u);
  EXPECT_EQ(dev.bytes_from_device(), 500u);
  EXPECT_EQ(dev.kernels_launched(), 2u);
}

TEST(SimulatedDevice, EverySubmissionPathPaysTheLaunch) {
  SimulatedDeviceExecutor::Config cfg;
  cfg.launch_latency = common::Micros{200};
  SimulatedDeviceExecutor dev("device:2", 2, cfg);
  EXPECT_EQ(dev.concurrency(), 1u);
  common::CountdownLatch latch(4);
  const common::Stopwatch sw;
  dev.post([&] { latch.count_down(); });
  EXPECT_TRUE(dev.try_post([&] { latch.count_down(); }));
  std::vector<Task> burst;
  burst.emplace_back([&] { latch.count_down(); });
  burst.emplace_back([&] { latch.count_down(); });
  dev.post_batch(burst);
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{5}));
  EXPECT_GE(sw.elapsed_ms(), 0.8);  // four launches, one device thread
  EXPECT_EQ(dev.kernels_launched(), 4u);
  dev.shutdown();
  EXPECT_FALSE(dev.try_post([] {}));
  EXPECT_EQ(dev.kernels_launched(), 4u);
}

TEST(SimulatedDevice, TransferTakesModeledTime) {
  SimulatedDeviceExecutor::Config cfg;
  cfg.bandwidth_bytes_per_sec = 1e6;  // 1 MB/s: 10KB == 10ms
  SimulatedDeviceExecutor dev("device:1", 1, cfg);
  const common::Stopwatch sw;
  dev.transfer_to_device(10'000);
  EXPECT_GE(sw.elapsed_ms(), 8.0);
}

// --- causal FIFO on concurrency-1 executors --------------------------------

// Thread A posts X and then releases thread B; B posts Y. X's post
// happens-before Y's, so a single-consumer target must run X first — the
// ordering an EDT-like target promises even though X and Y come from
// different threads. A first posts a gate task that holds the target
// until Y is queued, so both wait side by side and the queue alone picks
// the order; the two threads swap the A and B roles every round, so a
// queue that favours one producer's slot is caught either way.
void expect_causal_fifo(Executor& ex) {
  constexpr int kRounds = 10'000;
  auto first = std::make_unique<std::atomic<int>[]>(kRounds);
  std::atomic<int> released{-1};
  std::atomic<int> y_posted{-1};
  std::atomic<int> ran{0};
  auto record = [&](int round, int which) {
    int none = 0;
    first[round].compare_exchange_strong(none, which);
    ran.fetch_add(1, std::memory_order_release);
  };
  auto producer = [&](int self) {
    for (int r = 0; r < kRounds; ++r) {
      if (r % 2 == self) {  // A: gate, X, release B
        ex.post([&y_posted, r] {
          while (y_posted.load(std::memory_order_acquire) < r) {
            std::this_thread::yield();
          }
        });
        ex.post([&record, r] { record(r, 1); });
        released.store(r, std::memory_order_release);
      } else {  // B: wait for A, then Y
        while (released.load(std::memory_order_acquire) < r) {
          std::this_thread::yield();
        }
        ex.post([&record, r] { record(r, 2); });
        y_posted.store(r, std::memory_order_release);
      }
    }
  };
  {
    std::jthread t0(producer, 0);
    std::jthread t1(producer, 1);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds{30};
  while (ran.load(std::memory_order_acquire) < 2 * kRounds &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(ran.load(), 2 * kRounds);
  int overtaken = 0;
  for (int r = 0; r < kRounds; ++r) {
    if (first[r].load() != 1) ++overtaken;
  }
  EXPECT_EQ(overtaken, 0) << "rounds where Y ran before X";
}

TEST(CausalFifo, OneThreadPool) {
  WorkStealingExecutor pool("pool1", 1);
  expect_causal_fifo(pool);
}

TEST(CausalFifo, EventLoop) {
  event::EventLoop loop("edt");
  loop.start();
  expect_causal_fifo(loop);
  loop.stop();
}

}  // namespace
}  // namespace evmp::exec
