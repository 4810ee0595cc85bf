#pragma once
// The epoll reactor: socket readiness in, virtual-target dispatches out.
//
// The paper's conclusion names "integrating non-blocking I/O and
// asynchronous I/O into this model" as future work; this is that front
// end. The reactor thread is an event-dispatch thread in exactly the
// paper's sense — a single thread draining a queue of events — except its
// events come from three sources instead of one:
//
//   * fd readiness, harvested edge-triggered from epoll_wait;
//   * posted tasks (the Executor interface), delivered through a lock-free
//     MPSC queue (common::MpscQueue) and, if the loop is parked, an
//     eventfd wakeup. This is how completions flow *back* onto the
//     reactor from worker targets. The queue is FIFO across producers: a
//     post that happens-before another (even one made on a different
//     thread) runs first; and
//   * timers, kept in a hashed timer wheel (connection idle timeouts,
//     asyncio completion deadlines) and fired between epoll batches.
//
// When the loop runs dry it polls epoll and the task queue through the
// common::SpinWait window before it blocks, and it announces the block
// (parked_). Producers write the eventfd only to a parked reactor, so
// under steady traffic neither side pays a wake syscall.
//
// Because Reactor is an exec::Executor, it registers with the Runtime as
// a named virtual target: a worker-side handler finishing a response
// simply posts its continuation here (or dispatches with
// `target virtual(<reactor>)`), keeping the continuation-in-place style
// of the directive model end to end. Everything that touches connection
// state runs on the reactor thread; cross-thread interaction happens only
// through post().

#include <atomic>
#include <cstdint>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/clock.hpp"
#include "common/mpsc_queue.hpp"
#include "executor/executor.hpp"
#include "executor/task_node.hpp"
#include "net/socket.hpp"

struct epoll_event;

namespace evmp::net {

/// Counters published by the reactor (relaxed; observability only).
struct ReactorStats {
  /// epoll_wait calls that delivered readiness or parked (empty polls in
  /// the spin window are not counted)
  std::uint64_t epoll_waits = 0;
  std::uint64_t parks = 0;             ///< blocking epoll_waits (parked)
  std::uint64_t fd_events = 0;         ///< readiness events delivered
  std::uint64_t wakeups = 0;           ///< eventfd wakeups consumed
  std::uint64_t tasks_run = 0;         ///< posted tasks executed
  std::uint64_t timers_scheduled = 0;  ///< add_timer() insertions
  std::uint64_t timers_fired = 0;      ///< timer callbacks executed
  std::uint64_t timers_cancelled = 0;  ///< entries dropped by cancel_timer
};

/// Handle to a pending timer (see Reactor::add_timer). 0 is never issued.
using TimerId = std::uint64_t;

/// Single-threaded edge-triggered epoll loop with a hashed timer wheel,
/// registrable as a virtual target. Not meant to be subclassed further —
/// connection logic lives in FdHandler implementations (see net::Server).
class Reactor final : public exec::Executor {
 public:
  /// Callbacks a registered descriptor receives, always on the reactor
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

  explicit Reactor(std::string name = "reactor");
  ~Reactor() override;

  // --- lifecycle --------------------------------------------------------
  /// Spawn the reactor thread. add_fd() may be called before or after.
  void start();

  /// Ask the loop to exit, drain already-posted tasks, and join. Every
  /// post either runs or is refused: posts racing stop() are accepted (and
  /// run by the final drain) or refused, and posts after stop() began are
  /// refused — dropped with a warning, or `false` from try_post(). Pending
  /// timers are discarded unfired. Registered descriptors are not closed —
  /// their owners are. Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  // --- Executor interface ----------------------------------------------
  /// Enqueue a task for the reactor thread and wake it. Thread-safe.
  void post(exec::Task task) override;
  void post_batch(std::span<exec::Task> tasks) override;

  /// As post(), but a task refused because the reactor already stopped is
  /// reported with `false` instead of a warning — for teardown paths where
  /// the caller has a fallback (e.g. Server::stop() clears connections
  /// itself after the join).
  bool try_post(exec::Task task) override;

  /// Reactor-thread only: run one queued task (lets `await` dispatched
  /// from the reactor thread keep pumping completions). Foreign threads
  /// get false.
  bool try_run_one() override;

  [[nodiscard]] std::size_t concurrency() const noexcept override {
    return 1;
  }
  /// The task queue keeps no count: 1 while tasks are queued, else 0.
  [[nodiscard]] std::size_t pending() const override {
    return tasks_.empty() ? 0 : 1;
  }

  // --- fd registration --------------------------------------------------
  // Registration is edge-triggered (EPOLLET): a callback must consume the
  // condition fully (read/write until EAGAIN) or it will not fire again.
  // `handler` must stay valid until del_fd() (or the fd is closed). Safe
  // from any thread (epoll_ctl is kernel-side serialised), though
  // handlers are only ever *invoked* on the reactor thread.
  bool add_fd(int fd, bool want_read, bool want_write, FdHandler* handler);
  bool mod_fd(int fd, bool want_read, bool want_write, FdHandler* handler);
  void del_fd(int fd);

  // --- timers ------------------------------------------------------------
  /// Schedule `cb` to run on the reactor thread once `delay` has elapsed.
  /// The wheel hashes deadlines into fixed slots, so insertion and expiry
  /// are O(1) amortised regardless of how many timers are pending; the
  /// epoll timeout tracks the earliest pending deadline, so an idle
  /// reactor sleeps until exactly the next timer. Thread-safe: foreign
  /// threads enqueue the insertion through post() (the returned id is
  /// valid immediately either way).
  TimerId add_timer(common::Nanos delay, exec::Task cb);

  /// Best-effort cancellation: a timer that has not fired yet will not
  /// run. Cancelling an already-fired (or unknown) id is a no-op.
  /// Thread-safe with the same posting rule as add_timer.
  void cancel_timer(TimerId id);

  [[nodiscard]] ReactorStats stats() const noexcept;

 private:
  static constexpr std::size_t kWheelSlots = 512;  // power of two

  struct TimerEntry {
    TimerId id = 0;
    common::TimePoint deadline{};
    exec::Task task;
  };

  struct WheelSlot {
    std::vector<TimerEntry> entries;
    common::TimePoint min_deadline = common::TimePoint::max();
  };

  void run();
  void drain_tasks();
  /// Poll epoll, the task queue and the stop flag through the spin
  /// window, then announce the park, re-check, and block in epoll_wait
  /// until readiness, a wake or the next timer. Returns epoll_wait's
  /// result (0: go drain).
  int wait_for_events(epoll_event* events, int max_events);
  /// Write the eventfd if the reactor is parked (after a push or stop).
  void wake();
  /// Take a producer share of gate_; false once stop() has begun.
  bool admit() noexcept;
  /// Drop the share; call after the push *and* its wake().
  void leave() noexcept;

  // Timer internals; reactor thread only.
  std::size_t slot_of(common::TimePoint deadline) const noexcept;
  void insert_timer(TimerId id, common::TimePoint deadline, exec::Task cb);
  void do_cancel(TimerId id);
  void fire_due_timers();
  /// Milliseconds until the earliest pending deadline (rounded up), 0 if
  /// one is already due, -1 when no timer is pending (block forever).
  int timer_wait_ms() const noexcept;

  Fd epoll_;
  Fd wake_fd_;  ///< eventfd; level-triggered member of the epoll set

  common::MpscQueue<exec::TaskNode> tasks_;
  // Admission gate: bit 0 = closed by stop(); the rest counts producers
  // between admission and the end of their wake (kGateShare each). stop()
  // closes it and waits for the count to drain before telling the loop
  // to exit, so the final drain sees every admitted push fully linked.
  static constexpr std::uint64_t kGateClosed = 1;
  static constexpr std::uint64_t kGateShare = 2;
  alignas(64) std::atomic<std::uint64_t> gate_{0};
  // True while the reactor is (about to be) blocked in epoll_wait; only
  // then do producers write the eventfd (see wake()).
  alignas(64) std::atomic<bool> parked_{false};
  std::atomic<bool> wake_pending_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};

  // Hashed timer wheel; every member below is reactor-thread confined.
  std::vector<WheelSlot> wheel_{kWheelSlots};
  std::size_t timer_entries_ = 0;  ///< entries resident in the wheel
  std::unordered_set<TimerId> live_;       ///< pending and not cancelled
  std::unordered_set<TimerId> cancelled_;  ///< pending, to drop at expiry
  std::atomic<TimerId> next_timer_id_{1};

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

}  // namespace evmp::net
