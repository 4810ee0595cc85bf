#pragma once
// The event-dispatch thread (EDT): one thread draining one event queue.
//
// This is the C++ equivalent of the Swing/AWT machinery the paper builds
// on, and the only single-thread loop in the runtime: the `edt` virtual
// target, net::Server's epoll front end and io::AsyncIoService's
// completion thread are all instances of it. Its events come from three
// sources:
//
//   * posted tasks (the Executor interface), through a lock-free MPSC
//     queue (common::MpscQueue). The queue is FIFO across producers: a
//     post that happens-before another (even one made on a different
//     thread) runs first;
//   * fd readiness, harvested edge-triggered from epoll_wait and handed
//     to FdHandler callbacks (the paper's "non-blocking I/O" future work);
//   * timers, a min-heap keyed by (deadline, id) with lazy cancellation.
//     Due timers fire in deadline order.
//
// Three properties matter for the reproduction:
//
//  * re-entrant pumping: pump_one() lets a handler dispatch *other* queued
//    events from inside itself. The paper implements its `await` logical
//    barrier by "slightly modifying the event queue dispatching mechanism in
//    the Java AWT runtime library" — pump_one() is that modification.
//  * cheap wakes: when the loop runs dry it polls epoll and the task queue
//    through the common::SpinWait window before it blocks, and it
//    announces the block (parked_). Producers write the eventfd only to a
//    parked loop, so under steady traffic neither side pays a syscall.
//  * instrumentation: the loop records per-event dispatch delay (time from
//    post to handler start), handler busy time and nesting depth, which the
//    responsiveness benchmarks (Figures 7-8) report.

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/admission_gate.hpp"
#include "common/clock.hpp"
#include "common/mpsc_queue.hpp"
#include "common/stats.hpp"
#include "executor/executor.hpp"
#include "executor/task_node.hpp"

struct epoll_event;

namespace evmp::event {

/// Counters published by the loop (relaxed; observability only).
struct LoopStats {
  /// epoll_wait calls that delivered readiness or parked (empty polls in
  /// the spin window are not counted)
  std::uint64_t epoll_waits = 0;
  std::uint64_t parks = 0;             ///< blocking epoll_waits (parked)
  std::uint64_t fd_events = 0;         ///< readiness events delivered
  std::uint64_t wakeups = 0;           ///< eventfd wakeups consumed
  std::uint64_t tasks_run = 0;         ///< posted tasks executed
  std::uint64_t timers_scheduled = 0;  ///< add_timer() insertions
  std::uint64_t timers_fired = 0;      ///< timer callbacks executed
  std::uint64_t timers_cancelled = 0;  ///< timers dropped by cancel_timer
};

/// Handle to a pending timer (see EventLoop::add_timer). 0 is never issued.
using TimerId = std::uint64_t;

/// Single-threaded event loop; doubles as an Executor so it can be
/// registered as a virtual target (`edt`: paper Table II,
/// virtual_target_register_edt; or a server's reactor).
class EventLoop final : public exec::Executor {
 public:
  /// Callbacks a registered descriptor receives, always on the loop
  /// thread. A handler may close and deregister *its own* descriptor from
  /// inside a callback, but must not destroy other handlers there (their
  /// readiness may be in the same epoll batch); defer cross-handler
  /// teardown through post().
  class FdHandler {
   public:
    virtual ~FdHandler() = default;
    virtual void on_readable() = 0;
    virtual void on_writable() {}
    /// EPOLLERR/EPOLLHUP. Default: treat as readable so the owner observes
    /// the error/EOF from the next read().
    virtual void on_error() { on_readable(); }
  };

  explicit EventLoop(std::string name = "edt");
  ~EventLoop() override;

  // --- lifecycle --------------------------------------------------------
  /// Spawn an internal thread that runs the loop. Alternative to run().
  void start();

  /// Run the loop on the calling thread until stop(). A GUI application's
  /// main thread would call this; tests/benches normally use start().
  void run();

  /// Ask the loop to exit, drain already-posted tasks, and join the thread
  /// start() spawned (from a handler, or for a loop in run(), it returns
  /// without waiting). Every post either runs or is refused: posts racing
  /// stop() are accepted (and run by the final drain) or refused, and
  /// posts after stop() began are refused — dropped with a warning, or
  /// `false` from try_post(). Pending timers are destroyed unfired.
  /// Registered descriptors are not closed — their owners are. Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  // --- Executor interface ------------------------------------------------
  /// Enqueue an event handler for the loop thread and wake it. Thread-safe.
  void post(exec::Task task) override;

  /// Enqueue a burst of handlers with one queue exchange and at most one
  /// wakeup; dispatch order within the batch matches submission order,
  /// exactly as N consecutive post() calls from the same thread would.
  void post_batch(std::span<exec::Task> tasks) override;

  /// As post(), but a task refused because the loop already stopped is
  /// reported with `false` instead of a warning — for teardown paths where
  /// the caller has a fallback (e.g. Server::stop() clears connections
  /// itself after the join).
  bool try_post(exec::Task task) override;

  /// Loop-thread only: as pump_one(). Foreign threads get false.
  bool try_run_one() override;

  [[nodiscard]] std::size_t concurrency() const noexcept override { return 1; }
  /// The task queue keeps no count: 1 while tasks are queued, else 0.
  [[nodiscard]] std::size_t pending() const override {
    return tasks_.empty() ? 0 : 1;
  }

  // --- Swing-style helpers -----------------------------------------------
  /// True when the calling thread is the EDT
  /// (SwingUtilities.isEventDispatchThread()).
  [[nodiscard]] bool is_dispatch_thread() const noexcept {
    return owns_current_thread();
  }

  /// SwingUtilities.invokeLater: enqueue and return immediately.
  void invoke_later(exec::Task task) { post(std::move(task)); }

  /// SwingUtilities.invokeAndWait: enqueue and block until the handler ran.
  /// Called from the EDT itself the task runs inline (Swing would throw;
  /// inline execution preserves our sequential-equivalence property).
  void invoke_and_wait(exec::Task task);

  /// Loop-thread only: dispatch exactly one due timer or, if none is due,
  /// one queued task. Returns false when neither is pending. This is the
  /// "processAnotherEventHandler()" of Algorithm 1 line 15.
  bool pump_one();

  /// Block the calling (non-EDT) thread until the queue is empty and no
  /// handler is running, or the loop stopped. Pending timers are not
  /// waited for.
  void wait_until_idle();

  // --- fd registration --------------------------------------------------
  // Registration is edge-triggered (EPOLLET): a callback must consume the
  // condition fully (read/write until EAGAIN) or it will not fire again.
  // `handler` must stay valid until del_fd() (or the fd is closed). Safe
  // from any thread (epoll_ctl is kernel-side serialised), though
  // handlers are only ever *invoked* on the loop thread.
  bool add_fd(int fd, bool want_read, bool want_write, FdHandler* handler);
  bool mod_fd(int fd, bool want_read, bool want_write, FdHandler* handler);
  void del_fd(int fd);

  // --- timers ------------------------------------------------------------
  /// Schedule `cb` to run on the loop thread once `delay` has elapsed
  /// (javax.swing.Timer one-shot equivalent). The epoll timeout tracks the
  /// earliest deadline (rounded up to a millisecond, never early).
  /// Thread-safe: foreign threads enqueue the insertion through post()
  /// (the returned id is valid immediately either way).
  TimerId add_timer(common::Nanos delay, exec::Task cb);

  /// Cancellation: a timer that has not fired yet will not run; its
  /// callback is destroyed at once and its heap slot dropped when it comes
  /// due. Linear in the pending-timer count. Cancelling an already-fired
  /// (or unknown) id is a no-op. Thread-safe, posting like add_timer.
  void cancel_timer(TimerId id);

  // --- instrumentation ---------------------------------------------------
  /// Events (posted tasks and timers) fully dispatched so far.
  [[nodiscard]] std::uint64_t dispatched() const noexcept {
    return dispatched_.load(std::memory_order_relaxed);
  }
  /// Total time the EDT has spent inside top-level handlers.
  [[nodiscard]] common::Nanos busy_time() const noexcept {
    return common::Nanos{busy_ns_.load(std::memory_order_relaxed)};
  }
  /// Deepest observed re-entrant dispatch nesting.
  [[nodiscard]] int max_nesting() const noexcept {
    return max_nesting_.load(std::memory_order_relaxed);
  }
  /// post_batch() calls accepted (events they carried count in
  /// dispatched() as usual).
  [[nodiscard]] std::uint64_t batch_posts() const noexcept {
    return batch_posts_.load(std::memory_order_relaxed);
  }
  /// Distribution of post→dispatch-start delays (EDT responsiveness). A
  /// timer's delay runs from its deadline: it measures lateness.
  [[nodiscard]] const common::LatencyHistogram& dispatch_delay() const noexcept {
    return delay_hist_;
  }
  /// Resets dispatched(), busy_time(), max_nesting() and dispatch_delay().
  void reset_stats();

  [[nodiscard]] LoopStats stats() const noexcept;

 private:
  struct Timer {
    common::TimePoint deadline;
    TimerId id = 0;
    exec::Task task;  ///< empty once cancelled
  };

  /// Run one handler with the delay/nesting/busy accounting.
  void dispatch(exec::Task& task, common::TimePoint posted);
  /// Unwrap and dispatch a node popped from tasks_.
  void run_node(exec::TaskNode* node);
  void drain_tasks();
  /// Fire the earliest timer if it is due at `now_tp`; false otherwise.
  bool fire_one_due_timer(common::TimePoint now_tp);
  void fire_due_timers();
  void insert_timer(Timer timer);
  void do_cancel(TimerId id);
  /// Milliseconds until the earliest pending deadline (rounded up), 0 if
  /// one is already due, -1 when no timer is pending (block forever).
  [[nodiscard]] int timer_wait_ms() const noexcept;
  /// Poll epoll, the task queue and the stop flag through the spin
  /// window, then announce the park, re-check, and block in epoll_wait
  /// until readiness, a wake or the next timer. Returns epoll_wait's
  /// result (0: go drain).
  int wait_for_events(epoll_event* events, int max_events);
  /// Write the eventfd if the loop is parked (after a push or stop).
  void wake();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd; level-triggered member of the epoll set

  common::MpscQueue<exec::TaskNode> tasks_;
  // Stop protocol: producers hold a share from admission until their push
  // is linked and its wake written; stop() closes and waits them out.
  common::AdmissionGate gate_;
  // True while the loop is (about to be) blocked in epoll_wait; only
  // then do producers write the eventfd (see wake()).
  alignas(64) std::atomic<bool> parked_{false};
  std::atomic<bool> wake_pending_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};

  // Min-heap by (deadline, id); loop-thread confined.
  std::vector<Timer> timers_;
  std::atomic<TimerId> next_timer_id_{1};

  int nesting_ = 0;  // touched only by the EDT
  std::atomic<std::uint64_t> dispatched_{0};
  std::atomic<std::uint64_t> batch_posts_{0};
  std::atomic<std::int64_t> busy_ns_{0};
  std::atomic<int> max_nesting_{0};
  common::LatencyHistogram delay_hist_;

  std::atomic<std::uint64_t> epoll_waits_{0};
  std::atomic<std::uint64_t> parks_{0};
  std::atomic<std::uint64_t> fd_events_{0};
  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<std::uint64_t> tasks_run_{0};
  std::atomic<std::uint64_t> timers_scheduled_{0};
  std::atomic<std::uint64_t> timers_fired_{0};
  std::atomic<std::uint64_t> timers_cancelled_{0};

  std::jthread thread_;
};

}  // namespace evmp::event
