#pragma once
// Lock-free work-stealing thread pool: the one multi-thread pool, backing
// every worker virtual target (Runtime::create_worker), the baselines'
// fixed pools and, with one thread, the simulated device. Where a central
// queue serialises every submission through one lock, this pool keeps
// the hot paths lock-free:
//
//  * each worker owns a common::ChaseLevDeque<TaskNode*> — owner push/pop
//    are fence-only (no RMW in the common case), thieves pay one CAS per
//    stolen task, and a failed steal never blocks anyone;
//  * tasks live in pooled TaskNode envelopes (executor/task_node.hpp), so
//    the deques move trivially-copyable pointers — the racy pre-CAS slot
//    reads Chase–Lev requires are well-defined, and the steady state
//    allocates nothing (enforced by bench_steal_throughput --alloc-check);
//  * foreign post() cannot touch a Chase–Lev bottom (owner-only), so
//    non-worker submissions land in an intrusive lock-free MPSC injection
//    queue (common::MpscQueue): a push is one exchange plus one store, and
//    the queue is FIFO across producers. Workers take turns as its single
//    consumer behind a try-lock; one that loses the try-lock goes on to
//    steal instead of waiting. An idle worker reads the queue's lock-free
//    empty() hint, so spinning workers never touch the lock's cache line
//    while nothing is queued;
//  * idle workers spin-then-park on a common::EventCount — notify_one
//    wakes exactly one worker the moment work arrives (no 1 ms polling, no
//    thundering-herd rescan of every deque), and a producer that finds no
//    waiters never reaches a syscall;
//  * steal victims are probed near-before-far: each worker's victim order
//    is built once from common::Topology (SMT sibling, then LLC peer, then
//    same NUMA node, then remote; randomised within each tier), so a
//    stolen task's captures cross the smallest possible cache boundary.
//    near_steals()/far_steals() split the counter at the LLC tier. On
//    flat topologies (no sysfs) every peer ranks equal and the order
//    degrades to the shuffled-uniform scan used before.
//
// EVMP_PIN=1 additionally pins worker i to its topology CPU. Pinning is
// advisory: where sched_setaffinity is unavailable or refused the workers
// simply run unpinned (pinned_workers() reports how many stuck).
//
// Stop protocol: foreign posts pass a common::AdmissionGate, so shutdown()
// waits out every post it did not refuse and then drains it — a post is
// run or refused (try_post() says which), never lost. A worker's post to
// its own deque needs no gate: its owner pops it before exiting.
//
// bench_steal_throughput measures the steal path and its allocation
// budget; DESIGN.md §9 documents the memory-ordering and parking
// arguments, §11 the victim ordering and pinning semantics.

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/admission_gate.hpp"
#include "common/chase_lev_deque.hpp"
#include "common/event_count.hpp"
#include "common/mpsc_queue.hpp"
#include "common/topology.hpp"
#include "executor/executor.hpp"
#include "executor/task_node.hpp"

namespace evmp::exec {

/// Submission counters in the shape the benchmark harness reads
/// (queue_stats()).
struct PoolQueueStats {
  std::uint64_t pushes = 0;      ///< tasks accepted (posted or batched)
  std::uint64_t collisions = 0;  ///< injection consumer try-lock losses
  std::uint64_t max_depth = 0;   ///< not tracked by this pool: always 0
};

/// Fixed-size pool with per-worker lock-free Chase–Lev deques, an MPSC
/// injection queue for foreign submissions, topology-ordered stealing and
/// event-count parking. Not final: the simulated device wraps its
/// submissions.
class WorkStealingExecutor : public Executor {
 public:
  /// Builds victim orders from the process topology
  /// (common::Topology::instance()) and honours EVMP_PIN.
  WorkStealingExecutor(std::string name, std::size_t num_threads);
  /// Explicit-topology variant (tests inject fake machines; `topo` is
  /// copied). `pin` forces worker pinning on or off regardless of EVMP_PIN.
  WorkStealingExecutor(std::string name, std::size_t num_threads,
                       const common::Topology& topo, bool pin);
  ~WorkStealingExecutor() override;

  void post(Task task) override;
  /// As post(), but says whether the task was accepted: false (task
  /// destroyed unrun) once shutdown() has begun.
  bool try_post(Task task) override;
  /// Admit a burst: a worker thread appends to its own deque in order (the
  /// same state as N posts); a foreign thread links the whole batch into
  /// the injection queue with one exchange and one wakeup, preserving FIFO
  /// order within the batch.
  void post_batch(std::span<Task> tasks) override;
  bool try_run_one() override;
  [[nodiscard]] std::size_t concurrency() const noexcept override;
  /// Deque sizes plus injected-but-not-taken tasks; a snapshot under
  /// concurrent posts.
  [[nodiscard]] std::size_t pending() const override;

  /// Stop accepting tasks, drain all queues, and join. Idempotent.
  /// Publishes pop/steal/injection/batch counters to common::Tracer.
  void shutdown();

  /// Tasks executed from the owning worker's deque (LIFO pops).
  [[nodiscard]] std::uint64_t local_pops() const noexcept {
    return local_pops_.load(std::memory_order_relaxed);
  }
  /// Tasks stolen from another worker's deque (all distances).
  [[nodiscard]] std::uint64_t steals() const noexcept {
    return steals_.load(std::memory_order_relaxed);
  }
  /// Steals from a victim within the thief's LLC tier (SMT sibling or
  /// cache peer). Foreign-thread steals have no locality and count as far.
  [[nodiscard]] std::uint64_t near_steals() const noexcept {
    return near_steals_.load(std::memory_order_relaxed);
  }
  /// Steals that crossed the LLC boundary (plus foreign-thread steals).
  [[nodiscard]] std::uint64_t far_steals() const noexcept {
    return steals() - near_steals();
  }
  /// Tasks taken from the foreign-submission injection queue.
  [[nodiscard]] std::uint64_t injection_pops() const noexcept {
    return injection_pops_.load(std::memory_order_relaxed);
  }
  /// Accepted tasks (taken plus still queued, so a snapshot under
  /// concurrent posts) and the times a thread found the injection
  /// queue's consumer try-lock taken.
  [[nodiscard]] PoolQueueStats queue_stats() const;
  /// post_batch() calls accepted.
  [[nodiscard]] std::uint64_t batch_posts() const noexcept {
    return batch_posts_.load(std::memory_order_relaxed);
  }
  /// Workers successfully pinned to their topology CPU (0 unless
  /// EVMP_PIN=1 or the pinning constructor was used).
  [[nodiscard]] std::uint64_t pinned_workers() const noexcept {
    return pinned_workers_.load(std::memory_order_relaxed);
  }

  /// The victim probe order (worker indices, near-before-far) built for
  /// one worker — exposed for tests and diagnostics.
  [[nodiscard]] std::vector<int> victim_order_for(int worker) const;
  /// How many leading entries of victim_order_for(worker) are near (same
  /// LLC tier).
  [[nodiscard]] std::size_t near_victims_of(int worker) const;

 private:
  friend struct WorkStealingTestAccess;  // tests pose as a lock holder

  struct Worker {
    // Separate cache lines per worker happen naturally: ChaseLevDeque
    // aligns its hot indices to 64 B internally.
    common::ChaseLevDeque<TaskNode*> deque;
    // Steal probe order (worker indices), nearest tier first; the first
    // near_victims entries share this worker's LLC. Immutable after
    // construction.
    std::vector<int> victims;
    std::size_t near_victims = 0;
    int cpu = -1;  ///< topology CPU this worker pins to under EVMP_PIN
  };

  /// Take a node: own deque first (LIFO), then the injection queue (when
  /// its empty() hint says so and the try-lock is free), then steal (FIFO)
  /// near-before-far along the worker's victim order, retrying a victim on
  /// a lost CAS race. `self` < 0 means a foreign caller (injection +
  /// rotating uniform steal only).
  bool take_node(int self, TaskNode*& out);
  /// Queue a task (own deque on a worker, injection otherwise); false
  /// when shutdown() refused it. Shared by post() and try_post().
  bool submit(Task task);
  enum class Injection { kTaken, kEmpty, kBusy };
  /// Pop the injection queue as its consumer of the moment: kBusy when
  /// another thread holds the consumer try-lock, kEmpty when nothing is
  /// linked yet.
  Injection take_injected(TaskNode*& out);
  /// Unwrap, recycle the envelope, run.
  void run_node(TaskNode* node);
  void worker_main(int index);
  [[nodiscard]] int current_worker_index() const noexcept;

  std::vector<std::unique_ptr<Worker>> workers_;
  common::MpscQueue<TaskNode> injection_;
  // Consumer try-lock for injection_: whoever holds it is the queue's one
  // consumer. Held only across a pop, never while a task runs.
  alignas(64) std::atomic<bool> injection_busy_{false};
  // Tasks pushed to injection_, for pending(). Producers add, nobody else
  // writes; its own line keeps it off the tail's and the lock's.
  alignas(64) std::atomic<std::uint64_t> injected_{0};
  common::EventCount idle_;
  bool pin_workers_ = false;
  common::AdmissionGate gate_;
  // Set once gate_ is closed and drained: workers exit when they find no
  // work after seeing it.
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> next_victim_{0};
  std::atomic<std::uint64_t> local_pops_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> near_steals_{0};
  std::atomic<std::uint64_t> injection_pops_{0};
  std::atomic<std::uint64_t> injection_collisions_{0};
  std::atomic<std::uint64_t> batch_posts_{0};
  std::atomic<std::uint64_t> pinned_workers_{0};
  std::vector<std::jthread> threads_;  // last: start after queues exist
};

// Named by evbench; the harness change (ROADMAP item 2) removes it.
using ThreadPoolExecutor = WorkStealingExecutor;

}  // namespace evmp::exec

namespace evmp::common {
// Named by evbench; the harness change (ROADMAP item 2) removes it.
using ShardedQueueStats = exec::PoolQueueStats;
}  // namespace evmp::common
