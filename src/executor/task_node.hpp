#pragma once
// Pooled task envelope shared by the executors that queue tasks through
// intrusive structures: the stealing pool's Chase–Lev deques and its
// injection queue, and the event loop's task queue (common::MpscQueue).
//
// Queues move trivially-copyable TaskNode pointers, so racy pre-CAS slot
// reads (Chase–Lev) and link swaps (MPSC) are well-defined, and a task is
// never copied while queued. Nodes come from one process-wide
// common::ObjectPool: recycled the moment their task is moved out, never
// freed, so the steady state allocates nothing.

#include <atomic>
#include <cstddef>
#include <span>

#include "common/clock.hpp"
#include "common/object_pool.hpp"
#include "executor/executor.hpp"

namespace evmp::exec {

struct TaskNode {
  Task fn;
  common::TimePoint posted{};  ///< event::EventLoop's dispatch-delay stamp
  std::atomic<TaskNode*> mpsc_next_{nullptr};  ///< common::MpscQueue link
  TaskNode* pool_next_ = nullptr;              ///< common::ObjectPool link
};

using TaskNodePool = common::ObjectPool<TaskNode>;

/// Wrap `task` in a pooled node.
inline TaskNode* make_task_node(Task task) {
  TaskNode* node = TaskNodePool::acquire();
  node->fn = std::move(task);
  return node;
}

/// A run of pooled nodes linked first → last through mpsc_next_, ready
/// for common::MpscQueue::push_chain.
struct TaskChain {
  TaskNode* first = nullptr;
  TaskNode* last = nullptr;
};

/// Wrap every task of a non-empty `tasks` in a pooled node, keeping order.
inline TaskChain make_task_chain(std::span<Task> tasks) {
  TaskChain chain;
  chain.first = chain.last = make_task_node(std::move(tasks[0]));
  for (std::size_t i = 1; i < tasks.size(); ++i) {
    TaskNode* node = make_task_node(std::move(tasks[i]));
    chain.last->mpsc_next_.store(node, std::memory_order_relaxed);
    chain.last = node;
  }
  return chain;
}

/// Unwrap `node`'s task and recycle the node. Recycling before the caller
/// runs the task keeps the node hot for a task that immediately posts.
inline Task take_task(TaskNode* node) noexcept {
  Task task = std::move(node->fn);
  TaskNodePool::release(node);
  return task;
}

}  // namespace evmp::exec
