#pragma once
// Intrusive multi-producer / single-consumer FIFO (Vyukov's intrusive MPSC
// node queue) over caller-owned nodes.
//
// The submission queues in front of the stealing pool's workers and the
// event loop's thread have many producers and, at any instant, one
// consumer. A mutex-striped queue pays a lock per push and per probe, and
// it is FIFO only per stripe: a later push can overtake an earlier one
// that waits in another stripe. This queue is one singly linked list whose
// tail producers swap atomically:
//
//  * push is one `exchange` on the tail plus one store linking the old
//    tail to the new node — lock-free, no CAS loop;
//  * push_chain links a pre-linked run of nodes with the same exchange and
//    store, so a whole batch costs one RMW and keeps its order;
//  * the queue is FIFO across producers by construction: the tail
//    exchanges are totally ordered, and list order is exchange order. If
//    push A happens-before push B (A's producer released B's producer,
//    even through a third object), A's exchange precedes B's and A is
//    consumed first — the causal FIFO an EDT-like target promises;
//  * empty() takes no lock and dereferences nothing: one load of the tail
//    decides "non-empty" in the common busy case, and only an idle-looking
//    queue reads the consumer's head as well.
//
// Half-linked pushes. Between a producer's exchange and its link store the
// list is cut: nodes behind the cut are unreachable. pop() then returns
// nullptr instead of spinning on the producer. Callers must make each
// producer's wakeup (EventCount notify, eventfd write) come *after* its
// push returns — the link is then complete, so that wakeup re-runs the
// consumer once the cut has healed. empty() counts a cut list as
// non-empty.
//
// Node requirements: default-constructible (the queue embeds one node as
// its stub) and a member `std::atomic<Node*> mpsc_next_`. A node belongs
// to the queue from push until pop returns it; the consumer may then
// recycle it (ObjectPool) — the one link store into a node has always
// completed by the time pop hands it out.
//
// Concurrency contract: push/push_chain/empty from any thread; pop from
// one consumer at a time. Consumers may take turns if they serialise pop()
// (the stealing pool does so with a try-lock), which also publishes head_
// from one consumer to the next.

#include <atomic>

namespace evmp::common {

template <class Node>
class MpscQueue {
 public:
  MpscQueue() noexcept : head_(&stub_), tail_(&stub_) {}
  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  /// Append one node. Any thread.
  void push(Node* node) noexcept { push_chain(node, node); }

  /// Append the run first → ... → last, already linked through
  /// mpsc_next_ by the caller (last's link is overwritten). The run is
  /// consumed in order, contiguously with respect to other producers.
  void push_chain(Node* first, Node* last) noexcept {
    last->mpsc_next_.store(nullptr, std::memory_order_relaxed);
    // acq_rel: acquire orders our link store after the previous owner's
    // nullptr store into `prev` (so ours is the one that sticks); release
    // publishes the chain's payload and inner links to the next producer.
    Node* prev = tail_.exchange(last, std::memory_order_acq_rel);
    // Release: the consumer's acquire load of this link sees the payload.
    prev->mpsc_next_.store(first, std::memory_order_release);
  }

  /// Detach the oldest node, or nullptr when the queue is empty or the
  /// oldest reachable node's successor is still being linked (see the
  /// header comment: the linking producer's wakeup follows). Consumer only.
  Node* pop() noexcept {
    Node* head = head_.load(std::memory_order_relaxed);
    Node* next = head->mpsc_next_.load(std::memory_order_acquire);
    if (head == &stub_) {
      if (next == nullptr) return nullptr;
      head_.store(next, std::memory_order_relaxed);
      head = next;
      next = next->mpsc_next_.load(std::memory_order_acquire);
    }
    if (next != nullptr) {
      head_.store(next, std::memory_order_relaxed);
      return head;
    }
    // `head` is the last reachable node. A tail past it means a producer
    // is between its exchange and its link: report empty, do not wait.
    if (head != tail_.load(std::memory_order_acquire)) return nullptr;
    // `head` is the last node: queue the stub behind it so it can leave.
    push(&stub_);
    next = head->mpsc_next_.load(std::memory_order_acquire);
    if (next != nullptr) {
      head_.store(next, std::memory_order_relaxed);
      return head;
    }
    // A producer swapped the tail between our check and the stub push;
    // its link into `head` is in flight and its wakeup follows.
    return nullptr;
  }

  /// True when nothing is queued (a cut list counts as non-empty). Any
  /// thread; a hint under concurrent pushes, exact once they returned.
  /// The tail load is acquire so that when it reads a stub re-pushed by
  /// pop(), the head_ store pop() made before that push is visible too.
  [[nodiscard]] bool empty() const noexcept {
    return tail_.load(std::memory_order_acquire) == &stub_ &&
           head_.load(std::memory_order_relaxed) == &stub_;
  }

 private:
  friend struct MpscQueueTestAccess;  // tests freeze a push mid-link

  Node stub_;
  // Consumer end; atomic only so empty() may read it from any thread.
  alignas(64) std::atomic<Node*> head_;
  // Producer end, on its own cache line: every push swaps it.
  alignas(64) std::atomic<Node*> tail_;
};

}  // namespace evmp::common
