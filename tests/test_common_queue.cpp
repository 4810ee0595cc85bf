// Unit tests for common/mpsc_queue (MpscQueue) and common/sync primitives.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/mpsc_queue.hpp"
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
