// Unit tests for common/queue (MpmcQueue), common/sharded_queue
// (ShardedMpmcQueue), common/mpsc_queue (MpscQueue) and common/sync
// primitives.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/mpsc_queue.hpp"
#include "common/queue.hpp"
#include "common/sharded_queue.hpp"
#include "common/sync.hpp"

namespace evmp::common {

// Splits a push into its two steps so a test can hold the list cut.
struct MpscQueueTestAccess {
  template <class Node>
  static Node* swap_tail(MpscQueue<Node>& q, Node* node) {
    node->mpsc_next_.store(nullptr, std::memory_order_relaxed);
    return q.tail_.exchange(node, std::memory_order_acq_rel);
  }
};

namespace {

TEST(MpmcQueue, FifoOrder) {
  MpmcQueue<int> q;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 10; ++i) {
    auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(MpmcQueue, PushFrontJumpsTheLine) {
  MpmcQueue<int> q;
  q.push(1);
  q.push(2);
  q.push_front(0);
  EXPECT_EQ(*q.try_pop(), 0);
  EXPECT_EQ(*q.try_pop(), 1);
}

TEST(MpmcQueue, PopBlocksUntilPush) {
  MpmcQueue<int> q;
  std::jthread producer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds{10});
    q.push(42);
  });
  auto v = q.pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
}

TEST(MpmcQueue, CloseWakesBlockedConsumers) {
  MpmcQueue<int> q;
  std::atomic<int> woke{0};
  {
    std::vector<std::jthread> consumers;
    for (int i = 0; i < 3; ++i) {
      consumers.emplace_back([&] {
        auto v = q.pop();
        EXPECT_FALSE(v.has_value());
        woke.fetch_add(1);
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
    q.close();
  }
  EXPECT_EQ(woke.load(), 3);
}

TEST(MpmcQueue, CloseDrainsRemainingItems) {
  MpmcQueue<int> q;
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.push(3));  // refused
  EXPECT_EQ(*q.pop(), 1);   // still poppable
  EXPECT_EQ(*q.pop(), 2);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(MpmcQueue, PopForTimesOut) {
  MpmcQueue<int> q;
  const auto v = q.pop_for(std::chrono::milliseconds{5});
  EXPECT_FALSE(v.has_value());
}

TEST(MpmcQueue, PopForReturnsItemWithinTimeout) {
  MpmcQueue<int> q;
  std::jthread producer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
    q.push(7);
  });
  const auto v = q.pop_for(std::chrono::seconds{5});
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
}

TEST(MpmcQueue, MoveOnlyPayload) {
  MpmcQueue<std::unique_ptr<int>> q;
  q.push(std::make_unique<int>(5));
  auto v = q.pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 5);
}

TEST(MpmcQueue, StressEveryItemDeliveredOnce) {
  MpmcQueue<int> q;
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 5000;
  std::mutex seen_mu;
  std::multiset<int> seen;
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < kConsumers; ++c) {
      threads.emplace_back([&] {
        while (auto v = q.pop()) {
          std::scoped_lock lk(seen_mu);
          seen.insert(*v);
        }
      });
    }
    {
      std::vector<std::jthread> producers;
      for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&q, p] {
          for (int i = 0; i < kPerProducer; ++i) {
            q.push(p * kPerProducer + i);
          }
        });
      }
    }
    q.close();
  }
  EXPECT_EQ(seen.size(),
            static_cast<std::size_t>(kProducers) * kPerProducer);
  // Every value exactly once.
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(seen.count(p * kPerProducer), 1u);
    EXPECT_EQ(seen.count(p * kPerProducer + kPerProducer - 1), 1u);
  }
}

// --- ShardedMpmcQueue ------------------------------------------------------

TEST(ShardedMpmcQueue, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(ShardedMpmcQueue<int>(1).shard_count(), 1u);
  EXPECT_EQ(ShardedMpmcQueue<int>(3).shard_count(), 4u);
  EXPECT_EQ(ShardedMpmcQueue<int>(8).shard_count(), 8u);
}

TEST(ShardedMpmcQueue, SingleProducerFifoOrder) {
  // One producer always lands in its home shard, so a lone consumer sees
  // strict FIFO — the per-shard (hence per-producer) ordering guarantee.
  ShardedMpmcQueue<int> q(8);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 100; ++i) {
    auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(ShardedMpmcQueue, PerShardFifoWithExplicitShards) {
  ShardedMpmcQueue<int> q(4);
  // Interleave pushes into two shards; each shard must stay FIFO.
  q.push_to(0, 1);
  q.push_to(2, 100);
  q.push_to(0, 2);
  q.push_to(2, 200);
  std::vector<int> shard0, shard2;
  for (int i = 0; i < 4; ++i) {
    auto v = q.try_pop(0);
    ASSERT_TRUE(v.has_value());
    (*v < 100 ? shard0 : shard2).push_back(*v);
  }
  EXPECT_EQ(shard0, (std::vector<int>{1, 2}));
  EXPECT_EQ(shard2, (std::vector<int>{100, 200}));
}

TEST(ShardedMpmcQueue, PopPullsFromSiblingShards) {
  ShardedMpmcQueue<int> q(4);
  q.push_to(3, 7);  // consumer's home shard 0 is empty
  auto v = q.pop(0);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
  EXPECT_GE(q.stats().steals, 1u);
}

TEST(ShardedMpmcQueue, BatchEquivalentToIndividualPushes) {
  // push_batch must deliver exactly the items N pushes would, in the same
  // (single-producer) order.
  ShardedMpmcQueue<int> q(4);
  std::vector<int> batch{0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(q.push_batch(batch), 8u);
  EXPECT_EQ(q.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  const auto s = q.stats();
  EXPECT_EQ(s.batch_pushes, 1u);
  EXPECT_EQ(s.batch_items, 8u);
  EXPECT_EQ(s.pops, 8u);
}

TEST(ShardedMpmcQueue, BatchOfMoveOnlyPayload) {
  ShardedMpmcQueue<std::unique_ptr<int>> q(2);
  std::vector<std::unique_ptr<int>> batch;
  batch.push_back(std::make_unique<int>(1));
  batch.push_back(std::make_unique<int>(2));
  EXPECT_EQ(q.push_batch(batch), 2u);
  EXPECT_EQ(**q.pop(), 1);
  EXPECT_EQ(**q.pop(), 2);
}

TEST(ShardedMpmcQueue, CloseRefusesPushAndWholeBatches) {
  ShardedMpmcQueue<int> q(4);
  q.push(1);
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.push(2));
  std::vector<int> batch{3, 4, 5};
  // close-while-batching contract: the batch is refused atomically — no
  // partial admission.
  EXPECT_EQ(q.push_batch(batch), 0u);
  EXPECT_EQ(*q.pop(), 1);  // pre-close item still drains
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_EQ(q.size(), 0u);
}

TEST(ShardedMpmcQueue, CloseWakesBlockedConsumers) {
  ShardedMpmcQueue<int> q(4);
  std::atomic<int> woke{0};
  {
    std::vector<std::jthread> consumers;
    for (int i = 0; i < 3; ++i) {
      consumers.emplace_back([&] {
        auto v = q.pop();
        EXPECT_FALSE(v.has_value());
        woke.fetch_add(1);
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
    q.close();
  }
  EXPECT_EQ(woke.load(), 3);
}

TEST(ShardedMpmcQueue, PopBlocksUntilPush) {
  ShardedMpmcQueue<int> q(4);
  std::jthread producer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds{10});
    q.push(42);
  });
  auto v = q.pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
}

TEST(ShardedMpmcQueue, PopForTimesOutAndDelivers) {
  ShardedMpmcQueue<int> q(2);
  EXPECT_FALSE(q.pop_for(std::chrono::milliseconds{5}).has_value());
  std::jthread producer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
    q.push(7);
  });
  const auto v = q.pop_for(std::chrono::seconds{5});
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
}

TEST(ShardedMpmcQueue, StressEveryItemDeliveredOnce) {
  // Multi-producer multi-consumer, mixed single and batched pushes, with a
  // concurrent close after all producers joined: every item delivered
  // exactly once, none stranded behind the shutdown.
  ShardedMpmcQueue<int> q(4);
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 4000;
  std::mutex seen_mu;
  std::multiset<int> seen;
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < kConsumers; ++c) {
      threads.emplace_back([&] {
        while (auto v = q.pop()) {
          std::scoped_lock lk(seen_mu);
          seen.insert(*v);
        }
      });
    }
    {
      std::vector<std::jthread> producers;
      for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&q, p] {
          std::vector<int> batch;
          for (int i = 0; i < kPerProducer; ++i) {
            const int value = p * kPerProducer + i;
            if (p % 2 == 0) {
              q.push(value);
            } else {
              batch.push_back(value);
              if (batch.size() == 16) {
                q.push_batch(batch);
                batch.clear();
              }
            }
          }
          if (!batch.empty()) q.push_batch(batch);
        });
      }
    }
    q.close();
  }
  ASSERT_EQ(seen.size(),
            static_cast<std::size_t>(kProducers) * kPerProducer);
  for (int v = 0; v < kProducers * kPerProducer; ++v) {
    ASSERT_EQ(seen.count(v), 1u) << "value " << v;
  }
  const auto s = q.stats();
  EXPECT_EQ(s.pops, static_cast<std::uint64_t>(kProducers) * kPerProducer);
  EXPECT_GT(s.batch_pushes, 0u);
}

struct MpscNode {
  int producer = -1;
  int seq = -1;
  std::atomic<MpscNode*> mpsc_next_{nullptr};
};

TEST(MpscQueue, EmptyUntilPushedAndAfterDrained) {
  MpscQueue<MpscNode> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pop(), nullptr);
  MpscNode a;
  MpscNode b;
  q.push(&a);
  EXPECT_FALSE(q.empty());
  q.push(&b);
  EXPECT_EQ(q.pop(), &a);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.pop(), &b);  // the last node leaves via the stub re-push
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pop(), nullptr);
  q.push(&a);  // nodes are reusable once popped
  EXPECT_EQ(q.pop(), &a);
  EXPECT_TRUE(q.empty());
}

TEST(MpscQueue, ChainKeepsItsOrderBetweenSinglePushes) {
  MpscQueue<MpscNode> q;
  std::vector<MpscNode> nodes(6);
  q.push(&nodes[0]);
  for (std::size_t i = 1; i < 4; ++i) {
    nodes[i].mpsc_next_.store(&nodes[i + 1], std::memory_order_relaxed);
  }
  q.push_chain(&nodes[1], &nodes[4]);
  q.push(&nodes[5]);
  for (auto& node : nodes) EXPECT_EQ(q.pop(), &node);
  EXPECT_EQ(q.pop(), nullptr);
  EXPECT_TRUE(q.empty());
}

TEST(MpscQueue, HalfLinkedPushReadsEmptyUntilLinked) {
  // A producer preempted between its tail exchange and its link store cuts
  // the list. The consumer must report empty — not spin, not skip ahead —
  // while empty() already counts the cut list as non-empty.
  MpscQueue<MpscNode> q;
  MpscNode a;
  MpscNode b;
  MpscNode c;
  q.push(&a);
  MpscNode* prev = MpscQueueTestAccess::swap_tail(q, &b);
  EXPECT_EQ(prev, &a);
  q.push(&c);  // lands behind the cut
  // a cannot leave while the tail is past it and its link is missing.
  EXPECT_EQ(q.pop(), nullptr);
  EXPECT_EQ(q.pop(), nullptr);
  EXPECT_FALSE(q.empty());
  prev->mpsc_next_.store(&b, std::memory_order_release);  // finish the push
  EXPECT_EQ(q.pop(), &a);
  EXPECT_EQ(q.pop(), &b);
  EXPECT_EQ(q.pop(), &c);
  EXPECT_EQ(q.pop(), nullptr);
  EXPECT_TRUE(q.empty());
}

TEST(MpscQueue, CutBeforeFirstNodeReadsEmpty) {
  MpscQueue<MpscNode> q;
  MpscNode a;
  MpscNode* prev = MpscQueueTestAccess::swap_tail(q, &a);
  EXPECT_EQ(q.pop(), nullptr);
  EXPECT_FALSE(q.empty());
  prev->mpsc_next_.store(&a, std::memory_order_release);
  EXPECT_EQ(q.pop(), &a);
  EXPECT_TRUE(q.empty());
}

TEST(MpscQueue, FourProducersEachItemOncePerProducerFifo) {
  // Two producers push singly, two push 8-node chains; one consumer pops
  // concurrently. Every node arrives exactly once, each producer's nodes
  // in push order, and each chain contiguously.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 20000;
  constexpr int kChain = 8;
  MpscQueue<MpscNode> q;
  std::vector<std::vector<MpscNode>> nodes(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    nodes[p] = std::vector<MpscNode>(kPerProducer);
    for (int i = 0; i < kPerProducer; ++i) {
      nodes[p][i].producer = p;
      nodes[p][i].seq = i;
    }
  }
  std::vector<int> next_seq(kProducers, 0);
  int total = 0;
  int chain_errors = 0;
  int order_errors = 0;
  {
    std::vector<std::jthread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        auto& mine = nodes[p];
        if (p % 2 == 0) {
          for (auto& node : mine) q.push(&node);
          return;
        }
        for (int i = 0; i < kPerProducer; i += kChain) {
          for (int j = i; j < i + kChain - 1; ++j) {
            mine[j].mpsc_next_.store(&mine[j + 1], std::memory_order_relaxed);
          }
          q.push_chain(&mine[i], &mine[i + kChain - 1]);
        }
      });
    }
    const MpscNode* last = nullptr;
    while (total < kProducers * kPerProducer) {
      MpscNode* node = q.pop();
      if (node == nullptr) {
        std::this_thread::yield();
        continue;
      }
      if (node->seq != next_seq[node->producer]) ++order_errors;
      next_seq[node->producer] = node->seq + 1;
      // Inside a chain, the predecessor must be the chain's previous node.
      if (node->producer % 2 == 1 && node->seq % kChain != 0 &&
          (last == nullptr || last->producer != node->producer ||
           last->seq != node->seq - 1)) {
        ++chain_errors;
      }
      last = node;
      ++total;
    }
  }
  EXPECT_EQ(order_errors, 0);
  EXPECT_EQ(chain_errors, 0);
  EXPECT_EQ(q.pop(), nullptr);
  EXPECT_TRUE(q.empty());
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next_seq[p], kPerProducer);
}

TEST(CountdownLatch, OpensAtZero) {
  CountdownLatch latch(2);
  EXPECT_EQ(latch.pending(), 2u);
  latch.count_down();
  EXPECT_FALSE(latch.wait_for(std::chrono::milliseconds{1}));
  latch.count_down();
  latch.wait();  // returns immediately
  EXPECT_EQ(latch.pending(), 0u);
}

TEST(CountdownLatch, ExtraCountDownIsHarmless) {
  CountdownLatch latch(1);
  latch.count_down();
  latch.count_down();  // no underflow
  EXPECT_TRUE(latch.wait_for(std::chrono::milliseconds{1}));
}

TEST(CountdownLatch, CrossThreadRelease) {
  CountdownLatch latch(3);
  {
    std::vector<std::jthread> workers;
    for (int i = 0; i < 3; ++i) {
      workers.emplace_back([&latch] { latch.count_down(); });
    }
  }
  EXPECT_TRUE(latch.wait_for(std::chrono::seconds{5}));
}

TEST(CountdownLatch, ResetRearms) {
  CountdownLatch latch(1);
  latch.count_down();
  latch.wait();
  latch.reset(1);
  EXPECT_FALSE(latch.wait_for(std::chrono::milliseconds{1}));
}

TEST(ManualResetEvent, SetReleasesWaiters) {
  ManualResetEvent ev;
  EXPECT_FALSE(ev.is_set());
  std::jthread setter([&ev] {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
    ev.set();
  });
  ev.wait();
  EXPECT_TRUE(ev.is_set());
}

TEST(ManualResetEvent, ResetBlocksAgain) {
  ManualResetEvent ev;
  ev.set();
  ev.wait();
  ev.reset();
  EXPECT_FALSE(ev.is_set());
}

}  // namespace
}  // namespace evmp::common
