// Tests for the zero-allocation dispatch fast path: pooled completion
// states (recycling, reuse after exception, no recycle under a live
// waiter), the lock-free tag groups under producer stress, and the
// non-template wait_for hot path.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/object_pool.hpp"
#include "common/sync.hpp"
#include "core/runtime.hpp"
#include "core/tag_group.hpp"
#include "executor/completion.hpp"

namespace evmp {
namespace {

using exec::CompletionRef;
using exec::CompletionState;

// --- completion-state pooling -------------------------------------------

TEST(CompletionPool, StateIsRecycledAfterLastRefDrops) {
  CompletionState* first;
  {
    CompletionRef ref = CompletionState::make();
    first = ref.get();
    ref->set_done();
  }
  // The thread-local cache is LIFO, so the very next acquire on this
  // thread returns the state we just released — re-armed to pending.
  CompletionRef again = CompletionState::make();
  EXPECT_EQ(again.get(), first);
  EXPECT_FALSE(again->done());
  EXPECT_FALSE(again->failed());
}

TEST(CompletionPool, ReuseAfterExceptionIsClean) {
  CompletionState* first;
  {
    CompletionRef ref = CompletionState::make();
    first = ref.get();
    ref->set_exception(std::make_exception_ptr(std::runtime_error("boom")));
    EXPECT_THROW(ref->wait(), std::runtime_error);
  }
  // Recycled state must not resurrect the old exception.
  CompletionRef again = CompletionState::make();
  ASSERT_EQ(again.get(), first);
  EXPECT_FALSE(again->failed());
  again->set_done();
  again->wait();  // must not throw
}

TEST(CompletionPool, NoRecycleWhileWaiterHoldsRef) {
  CompletionRef producer = CompletionState::make();
  CompletionState* raw = producer.get();
  CompletionRef waiter = producer;  // second reference
  producer->set_done();
  producer.reset();  // runner dropped its ref; waiter still live
  // The state must NOT be back in the pool yet: a fresh make() on this
  // thread must hand out a different object.
  CompletionRef fresh = CompletionState::make();
  EXPECT_NE(fresh.get(), raw);
  waiter->wait();
  waiter.reset();  // now the last ref drops and it recycles
  CompletionRef reused = CompletionState::make();
  EXPECT_EQ(reused.get(), raw);
}

TEST(CompletionPool, CrossThreadLifecycleStress) {
  // Producer/consumer churn exercising pooled acquire/release from two
  // threads — the pattern TSan/ASan legs verify for the recycle protocol.
  constexpr int kRounds = 2000;
  for (int i = 0; i < kRounds; ++i) {
    CompletionRef ref = CompletionState::make();
    std::jthread t([ref]() mutable {
      ref->set_done();
      ref.reset();  // runner-side drop may be the last ref
    });
    ref->wait();
    ref.reset();
  }
  const auto stats = common::ObjectPool<CompletionState>::stats();
  // The pool must have bounded the population far below the round count.
  EXPECT_LT(stats.allocated, static_cast<std::size_t>(kRounds) / 4);
}

TEST(CompletionState, WaitForShimAcceptsArbitraryDurations) {
  CompletionState s;
  // Template shim: seconds-typed and float-typed durations forward to the
  // nanoseconds hot path.
  EXPECT_FALSE(s.wait_for(std::chrono::duration<double>(0.002)));
  EXPECT_FALSE(s.wait_for(std::chrono::milliseconds{1}));
  s.set_done();
  EXPECT_TRUE(s.wait_for(std::chrono::seconds{1}));
}

TEST(CompletionState, AtomicWaitWakesCrossThread) {
  CompletionState s;
  std::jthread t([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds{10});
    s.set_done();
  });
  s.wait();  // parks on the futex past the spin window
  EXPECT_TRUE(s.done());
}

// --- tag groups under stress --------------------------------------------

TEST(TagGroupStress, SixteenProducersOneTag) {
  Runtime rt;
  rt.create_worker("worker", 2);
  constexpr int kProducers = 16;
  constexpr int kPerProducer = 50;
  std::atomic<int> done{0};
  {
    std::vector<std::jthread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&] {
        for (int i = 0; i < kPerProducer; ++i) {
          rt.invoke_target_block(
              "worker", [&] { done.fetch_add(1, std::memory_order_relaxed); },
              Async::kNameAs, "stress-tag");
        }
        rt.wait_tag("stress-tag");
      });
    }
  }
  // Every producer joined the same tag; all blocks must have run.
  rt.wait_tag("stress-tag");
  EXPECT_EQ(done.load(), kProducers * kPerProducer);
  rt.clear();
}

TEST(TagGroupStress, ExceptionSurfacesThroughWaitTag) {
  Runtime rt;
  rt.create_worker("worker", 1);
  common::ManualResetEvent release;
  rt.invoke_target_block(
      "worker",
      [&] {
        release.wait();
        throw std::runtime_error("tagged failure");
      },
      Async::kNameAs, "failing-tag");
  release.set();
  EXPECT_THROW(rt.wait_tag("failing-tag"), std::runtime_error);
  // The error is consumed: the next wait on the (now idle) tag succeeds.
  rt.wait_tag("failing-tag");
  rt.clear();
}

TEST(TagRegistry, ShardedRegistryCountsCreations) {
  TagRegistry reg;
  EXPECT_EQ(reg.size(), 0u);
  for (int i = 0; i < 64; ++i) {
    reg.group("tag-" + std::to_string(i));
  }
  reg.group("tag-0");  // existing: no new creation
  EXPECT_EQ(reg.size(), 64u);
  EXPECT_EQ(reg.created(), 64u);
}

TEST(TagRegistry, ConcurrentDistinctTagsDoNotLoseGroups) {
  TagRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kTagsPerThread = 64;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kTagsPerThread; ++i) {
          TagGroup& g =
              reg.group("t" + std::to_string(t) + "-" + std::to_string(i));
          g.enter();
          g.leave(nullptr);
        }
      });
    }
  }
  EXPECT_EQ(reg.size(),
            static_cast<std::size_t>(kThreads) * kTagsPerThread);
}

// --- runtime stats on the new path ---------------------------------------

TEST(DispatchStats, CountersAdvanceWithoutStatsLock) {
  Runtime rt;
  rt.create_worker("worker", 1);
  rt.reset_stats();
  rt.invoke_target_block("worker", [] {}, Async::kDefault);
  rt.invoke_target_block("worker", [] {}, Async::kAwait);
  auto h = rt.invoke_target_block("worker", [] {}, Async::kNowait);
  h.wait();
  const RuntimeStats s = rt.stats();
  EXPECT_EQ(s.posted, 3u);
  EXPECT_EQ(s.default_waits, 1u);
  EXPECT_EQ(s.awaits, 1u);
  rt.clear();
}

}  // namespace
}  // namespace evmp
