#include "net/reactor.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <thread>
#include <utility>

#include "common/logging.hpp"
#include "common/spin_wait.hpp"

namespace evmp::net {

namespace {
/// Wheel tick granularity: deadlines hash to slots of this width. One
/// millisecond matches epoll_wait's timeout resolution — finer would not
/// make the loop wake any earlier.
constexpr common::Nanos kTick = std::chrono::milliseconds{1};
}  // namespace

Reactor::Reactor(std::string reactor_name)
    : Executor(std::move(reactor_name)),
      epoll_(::epoll_create1(EPOLL_CLOEXEC)),
      wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  // The wake eventfd is the one level-triggered member of the set: a
  // pending wake must keep epoll_wait from blocking until it is consumed,
  // with no edge-rearm subtleties. data.ptr == nullptr marks it.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &ev);
}

Reactor::~Reactor() {
  stop();
  // Only a reactor that never ran can still hold tasks: drop them unrun.
  while (exec::TaskNode* node = tasks_.pop()) {
    [[maybe_unused]] const exec::Task dropped = exec::take_task(node);
  }
}

void Reactor::start() {
  if (running_.load(std::memory_order_acquire)) return;
  thread_ = std::jthread([this] { run(); });
  running_.store(true, std::memory_order_release);
}

void Reactor::stop() {
  if ((gate_.fetch_or(kGateClosed, std::memory_order_acq_rel) &
       kGateClosed) != 0) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  // Close the gate first: posts are refused from here on. Then wait out
  // the producers admitted before the close — each holds its share until
  // its push is linked and its wake written. Every later write to gate_
  // is an RMW, so the acquire load that sees no shares synchronises with
  // all their releases, and the store below hands that on to the loop:
  // its final drain sees every admitted task, none of them half-linked.
  while (gate_.load(std::memory_order_acquire) != kGateClosed) {
    std::this_thread::yield();
  }
  stop_requested_.store(true, std::memory_order_release);
  wake();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
}

bool Reactor::admit() noexcept {
  if ((gate_.fetch_add(kGateShare, std::memory_order_acquire) &
       kGateClosed) == 0) {
    return true;
  }
  gate_.fetch_sub(kGateShare, std::memory_order_release);
  return false;
}

void Reactor::leave() noexcept {
  gate_.fetch_sub(kGateShare, std::memory_order_release);
}

void Reactor::post(exec::Task task) {
  if (!try_post(std::move(task))) {
    EVMP_LOG_WARN << "task posted to stopped reactor '" << name()
                  << "' was dropped";
  }
}

void Reactor::post_batch(std::span<exec::Task> tasks) {
  if (tasks.empty()) return;
  if (!admit()) {
    EVMP_LOG_WARN << "batch of " << tasks.size() << " tasks posted to "
                  << "stopped reactor '" << name() << "' was dropped";
    return;
  }
  // Link the run privately, then splice it in with one exchange.
  const exec::TaskChain chain = exec::make_task_chain(tasks);
  tasks_.push_chain(chain.first, chain.last);
  wake();
  leave();
}

bool Reactor::try_post(exec::Task task) {
  if (!admit()) return false;
  tasks_.push(exec::make_task_node(std::move(task)));
  wake();  // after the push returned: the node is linked
  leave();
  return true;
}

bool Reactor::try_run_one() {
  if (!owns_current_thread()) return false;
  exec::TaskNode* node = tasks_.pop();
  if (node == nullptr) return false;
  exec::Task task = exec::take_task(node);
  run_task(task);
  tasks_run_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool Reactor::add_fd(int fd, bool want_read, bool want_write,
                     FdHandler* handler) {
  epoll_event ev{};
  ev.events = EPOLLET | EPOLLRDHUP | (want_read ? EPOLLIN : 0u) |
              (want_write ? EPOLLOUT : 0u);
  ev.data.ptr = handler;
  return ::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) == 0;
}

bool Reactor::mod_fd(int fd, bool want_read, bool want_write,
                     FdHandler* handler) {
  epoll_event ev{};
  ev.events = EPOLLET | EPOLLRDHUP | (want_read ? EPOLLIN : 0u) |
              (want_write ? EPOLLOUT : 0u);
  ev.data.ptr = handler;
  return ::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, fd, &ev) == 0;
}

void Reactor::del_fd(int fd) {
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr);
}

// --- timer wheel ----------------------------------------------------------

TimerId Reactor::add_timer(common::Nanos delay, exec::Task cb) {
  const TimerId id = next_timer_id_.fetch_add(1, std::memory_order_relaxed);
  const common::TimePoint deadline =
      common::now() + std::max(common::Nanos{0}, delay);
  if (owns_current_thread()) {
    insert_timer(id, deadline, std::move(cb));
  } else {
    post(exec::Task([this, id, deadline, cb = std::move(cb)]() mutable {
      insert_timer(id, deadline, std::move(cb));
    }));
  }
  return id;
}

void Reactor::cancel_timer(TimerId id) {
  if (owns_current_thread()) {
    do_cancel(id);
  } else {
    post(exec::Task([this, id] { do_cancel(id); }));
  }
}

std::size_t Reactor::slot_of(common::TimePoint deadline) const noexcept {
  const auto ticks =
      static_cast<std::uint64_t>(deadline.time_since_epoch() / kTick);
  return static_cast<std::size_t>(ticks) & (kWheelSlots - 1);
}

void Reactor::insert_timer(TimerId id, common::TimePoint deadline,
                           exec::Task cb) {
  WheelSlot& slot = wheel_[slot_of(deadline)];
  slot.entries.push_back(TimerEntry{id, deadline, std::move(cb)});
  slot.min_deadline = std::min(slot.min_deadline, deadline);
  live_.insert(id);
  ++timer_entries_;
  timers_scheduled_.fetch_add(1, std::memory_order_relaxed);
}

void Reactor::do_cancel(TimerId id) {
  // Lazy cancellation: the wheel entry stays where it is and is dropped
  // when its slot is swept. Both sets only ever hold ids whose entries
  // are still resident, so neither grows past the pending-timer count.
  if (live_.erase(id) != 0) cancelled_.insert(id);
}

void Reactor::fire_due_timers() {
  if (timer_entries_ == 0) return;
  const common::TimePoint now_tp = common::now();
  // Collect due callbacks before running any: a callback may re-arm
  // itself (add_timer mutates the wheel mid-sweep otherwise).
  std::vector<exec::Task> due;
  for (WheelSlot& slot : wheel_) {
    if (slot.entries.empty() || slot.min_deadline > now_tp) continue;
    common::TimePoint new_min = common::TimePoint::max();
    std::size_t keep = 0;
    for (TimerEntry& entry : slot.entries) {
      if (entry.deadline > now_tp) {
        new_min = std::min(new_min, entry.deadline);
        slot.entries[keep++] = std::move(entry);
        continue;
      }
      --timer_entries_;
      if (cancelled_.erase(entry.id) != 0) {
        timers_cancelled_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      live_.erase(entry.id);
      due.push_back(std::move(entry.task));
    }
    slot.entries.resize(keep);
    slot.min_deadline = new_min;
  }
  for (exec::Task& task : due) {
    run_task(task);
    timers_fired_.fetch_add(1, std::memory_order_relaxed);
  }
}

int Reactor::timer_wait_ms() const noexcept {
  if (timer_entries_ == 0) return -1;
  common::TimePoint next = common::TimePoint::max();
  for (const WheelSlot& slot : wheel_) {
    if (!slot.entries.empty()) next = std::min(next, slot.min_deadline);
  }
  if (next == common::TimePoint::max()) return -1;
  const auto gap = next - common::now();
  if (gap <= common::Nanos{0}) return 0;
  const auto ms = (gap + common::Nanos{999'999}) / common::Nanos{1'000'000};
  return static_cast<int>(std::min<std::int64_t>(ms, 60'000));
}

ReactorStats Reactor::stats() const noexcept {
  ReactorStats s;
  s.epoll_waits = epoll_waits_.load(std::memory_order_relaxed);
  s.parks = parks_.load(std::memory_order_relaxed);
  s.fd_events = fd_events_.load(std::memory_order_relaxed);
  s.wakeups = wakeups_.load(std::memory_order_relaxed);
  s.tasks_run = tasks_run_.load(std::memory_order_relaxed);
  s.timers_scheduled = timers_scheduled_.load(std::memory_order_relaxed);
  s.timers_fired = timers_fired_.load(std::memory_order_relaxed);
  s.timers_cancelled = timers_cancelled_.load(std::memory_order_relaxed);
  return s;
}

void Reactor::wake() {
  // Write the eventfd only to a parked reactor: one awake in its poll
  // window finds the push by itself. Dekker pairing with the park in
  // wait_for_events(): the caller's push (or stop flag) precedes this
  // fence and the parked_ load follows it; the park stores parked_,
  // fences, then loads the queue and the stop flag. Of two seq_cst
  // fences one comes first, so either the reactor sees the push and
  // stays up, or this load sees it parked.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (!parked_.load(std::memory_order_relaxed)) return;
  // Skip the syscall while a previous wake is still unconsumed; the
  // seq_cst exchange pairs with the loop's flag clear (see run()) so a
  // push is never stranded behind a cleared flag. Producers call this
  // after their push is linked, so it also covers a drain that found the
  // list cut at their node (MpscQueue::pop returned nullptr): that drain
  // either precedes this wake's eventfd write, or precedes the clear that
  // an already-pending wake is waiting for.
  if (wake_pending_.exchange(true)) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(wake_fd_.get(), &one, sizeof(one));
}

int Reactor::wait_for_events(epoll_event* events, int max_events) {
  // Poll through the spin window first: the next request or posted
  // completion usually arrives within it, and a reactor that is still
  // awake takes it without an eventfd write or a wake. Timers due now
  // skip the window (their callbacks are already late).
  if (timer_wait_ms() != 0) {
    common::SpinWait spin;
    do {
      const int n = ::epoll_wait(epoll_.get(), events, max_events, 0);
      if (n != 0) {
        if (n > 0) epoll_waits_.fetch_add(1, std::memory_order_relaxed);
        return n;
      }
      if (!tasks_.empty() ||
          stop_requested_.load(std::memory_order_acquire)) {
        return 0;
      }
    } while (spin.spin());
  }
  // Park: announce it, then re-check everything a producer could have
  // changed without writing the eventfd (see wake()): posted tasks and
  // the stop request. A cut list reads as non-empty, so the loop goes
  // round and drains once the push is linked.
  parked_.store(true, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (!tasks_.empty() || stop_requested_.load(std::memory_order_relaxed)) {
    parked_.store(false, std::memory_order_relaxed);
    return 0;
  }
  parks_.fetch_add(1, std::memory_order_relaxed);
  const int n =
      ::epoll_wait(epoll_.get(), events, max_events, timer_wait_ms());
  parked_.store(false, std::memory_order_relaxed);
  if (n >= 0) epoll_waits_.fetch_add(1, std::memory_order_relaxed);
  return n;
}

void Reactor::drain_tasks() {
  while (exec::TaskNode* node = tasks_.pop()) {
    exec::Task task = exec::take_task(node);
    run_task(task);
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Reactor::run() {
  ThreadBinding bind(this);
  constexpr int kMaxEvents = 256;
  epoll_event events[kMaxEvents];
  for (;;) {
    drain_tasks();
    if (stop_requested_.load(std::memory_order_acquire)) break;
    fire_due_timers();
    const int n = wait_for_events(events, kMaxEvents);
    if (n < 0) {
      if (errno == EINTR) continue;
      EVMP_LOG_WARN << "reactor '" << name() << "' epoll_wait failed: errno "
                    << errno;
      break;
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.ptr == nullptr) {
        std::uint64_t value = 0;
        [[maybe_unused]] const ssize_t got =
            ::read(wake_fd_.get(), &value, sizeof(value));
        // Clear before the next drain_tasks(): a producer that saw the
        // flag still set pushed before this clear, so the drain sees it.
        wake_pending_.store(false);
        wakeups_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      fd_events_.fetch_add(1, std::memory_order_relaxed);
      auto* handler = static_cast<FdHandler*>(events[i].data.ptr);
      const std::uint32_t ev = events[i].events;
      if ((ev & (EPOLLERR | EPOLLHUP)) != 0) {
        handler->on_error();
        continue;
      }
      if ((ev & (EPOLLIN | EPOLLRDHUP)) != 0) handler->on_readable();
      if ((ev & EPOLLOUT) != 0) handler->on_writable();
    }
  }
  drain_tasks();
}

}  // namespace evmp::net
