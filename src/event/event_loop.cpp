#include "event/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "common/logging.hpp"
#include "common/spin_wait.hpp"
#include "common/tracing.hpp"
#include "executor/completion.hpp"

namespace evmp::event {

namespace {

// Post stamp of wait_until_idle()'s probe task: it is not an event, so it
// stays out of the instrumentation.
constexpr common::TimePoint kProbe = common::TimePoint::min();

// Min-heap ordering for timers (std::push_heap builds a max-heap, so
// invert the comparison); the id breaks ties in arming order.
struct TimerLater {
  template <class T>
  bool operator()(const T& a, const T& b) const {
    if (a.deadline != b.deadline) return a.deadline > b.deadline;
    return a.id > b.id;
  }
};

}  // namespace

EventLoop::EventLoop(std::string loop_name)
    : Executor(std::move(loop_name)),
      epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)),
      wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  // The wake eventfd is the one level-triggered member of the set: a
  // pending wake must keep epoll_wait from blocking until it is consumed,
  // with no edge-rearm subtleties. data.ptr == nullptr marks it.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
}

EventLoop::~EventLoop() {
  stop();
  // Only a loop that never ran can still hold tasks: drop them unrun.
  while (exec::TaskNode* node = tasks_.pop()) {
    [[maybe_unused]] const exec::Task dropped = exec::take_task(node);
  }
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void EventLoop::start() {
  if (thread_.joinable()) return;
  running_.store(true, std::memory_order_release);
  thread_ = std::jthread([this] { run(); });
}

void EventLoop::stop() {
  // Posts are refused from here on, and every one admitted before is
  // fully linked once close() returns; the store below hands that on to
  // the loop, so its final drain sees each of them.
  if (gate_.close()) {
    stop_requested_.store(true, std::memory_order_release);
    wake();
    auto& tracer = common::Tracer::instance();
    const std::string prefix(name());
    tracer.set_counter(prefix + ".dispatched",
                       dispatched_.load(std::memory_order_relaxed));
    tracer.set_counter(prefix + ".batch_posts",
                       batch_posts_.load(std::memory_order_relaxed));
  }
  if (thread_.joinable() && thread_.get_id() != std::this_thread::get_id()) {
    thread_.join();
  }
}

void EventLoop::post(exec::Task task) {
  if (!try_post(std::move(task))) {
    EVMP_LOG_WARN << "event posted to stopped loop '" << name()
                  << "' was dropped";
  }
}

bool EventLoop::try_post(exec::Task task) {
  if (!gate_.enter()) return false;
  exec::TaskNode* node = exec::make_task_node(std::move(task));
  node->posted = common::now();
  tasks_.push(node);
  wake();  // after the push returned: the node is linked
  gate_.leave();
  return true;
}

void EventLoop::post_batch(std::span<exec::Task> tasks) {
  if (tasks.empty()) return;
  if (!gate_.enter()) {
    EVMP_LOG_WARN << "batch of " << tasks.size() << " events posted to "
                  << "stopped loop '" << name() << "' was dropped";
    return;
  }
  // Link the run privately, then splice it in with one exchange.
  const exec::TaskChain chain = exec::make_task_chain(tasks);
  const common::TimePoint posted = common::now();  // one stamp per burst
  for (exec::TaskNode* node = chain.first;;
       node = node->mpsc_next_.load(std::memory_order_relaxed)) {
    node->posted = posted;
    if (node == chain.last) break;
  }
  tasks_.push_chain(chain.first, chain.last);
  wake();
  gate_.leave();
  batch_posts_.fetch_add(1, std::memory_order_relaxed);
}

void EventLoop::invoke_and_wait(exec::Task task) {
  if (is_dispatch_thread()) {
    task();
    return;
  }
  exec::CompletionRef state = exec::CompletionState::make();
  post([state, fn = std::move(task)]() mutable {
    try {
      fn();
      state->set_done();
    } catch (...) {
      state->set_exception(std::current_exception());
    }
  });
  state->wait();
}

void EventLoop::wait_until_idle() {
  // Post a probe and let it look: it runs after everything queued before
  // it, and the loop is idle when it runs at top level (no handler below
  // it on the stack) and finds nothing queued behind it.
  for (;;) {
    if (!gate_.enter()) return;  // stopped: nothing more will run
    exec::CompletionRef state = exec::CompletionState::make();
    bool idle = false;
    exec::TaskNode* node = exec::make_task_node(exec::Task([&, state] {
      idle = nesting_ == 0 && tasks_.empty();
      state->set_done();
    }));
    node->posted = kProbe;
    tasks_.push(node);
    wake();
    gate_.leave();
    state->wait();
    if (idle) return;
  }
}

void EventLoop::dispatch(exec::Task& task, common::TimePoint posted) {
  const auto begin = common::now();
  delay_hist_.record(static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, common::elapsed_ns(posted, begin))));
  ++nesting_;
  int snapshot = max_nesting_.load(std::memory_order_relaxed);
  while (nesting_ > snapshot &&
         !max_nesting_.compare_exchange_weak(snapshot, nesting_,
                                             std::memory_order_relaxed)) {
  }
  try {
    task();
  } catch (...) {
    exec::unhandled_exception_hook()(name(), std::current_exception());
  }
  if (common::Tracer::instance().enabled()) {
    common::Tracer::instance().record(
        nesting_ > 1 ? "edt.dispatch.nested" : "edt.dispatch", "event",
        begin, common::now());
  }
  --nesting_;
  if (nesting_ == 0) {
    busy_ns_.fetch_add(common::elapsed_ns(begin, common::now()),
                       std::memory_order_relaxed);
  }
  dispatched_.fetch_add(1, std::memory_order_relaxed);
}

void EventLoop::run_node(exec::TaskNode* node) {
  const common::TimePoint posted = node->posted;
  exec::Task task = exec::take_task(node);
  if (posted == kProbe) {
    task();
    return;
  }
  dispatch(task, posted);
  tasks_run_.fetch_add(1, std::memory_order_relaxed);
}

bool EventLoop::pump_one() {
  if (!owns_current_thread()) return false;
  // A due timer goes first: it is already late, and a steady stream of
  // posts must not starve it while a handler pumps.
  if (!timers_.empty() && fire_one_due_timer(common::now())) return true;
  exec::TaskNode* node = tasks_.pop();
  if (node == nullptr) return false;
  run_node(node);
  return true;
}

bool EventLoop::try_run_one() { return pump_one(); }

bool EventLoop::add_fd(int fd, bool want_read, bool want_write,
                       FdHandler* handler) {
  epoll_event ev{};
  ev.events = EPOLLET | EPOLLRDHUP | (want_read ? EPOLLIN : 0u) |
              (want_write ? EPOLLOUT : 0u);
  ev.data.ptr = handler;
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

bool EventLoop::mod_fd(int fd, bool want_read, bool want_write,
                       FdHandler* handler) {
  epoll_event ev{};
  ev.events = EPOLLET | EPOLLRDHUP | (want_read ? EPOLLIN : 0u) |
              (want_write ? EPOLLOUT : 0u);
  ev.data.ptr = handler;
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0;
}

void EventLoop::del_fd(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

// --- timers ---------------------------------------------------------------

TimerId EventLoop::add_timer(common::Nanos delay, exec::Task cb) {
  const TimerId id = next_timer_id_.fetch_add(1, std::memory_order_relaxed);
  Timer timer{common::now() + std::max(common::Nanos{0}, delay), id,
              std::move(cb)};
  if (owns_current_thread()) {
    insert_timer(std::move(timer));
  } else {
    post(exec::Task([this, timer = std::move(timer)]() mutable {
      insert_timer(std::move(timer));
    }));
  }
  return id;
}

void EventLoop::cancel_timer(TimerId id) {
  if (owns_current_thread()) {
    do_cancel(id);
  } else {
    post(exec::Task([this, id] { do_cancel(id); }));
  }
}

void EventLoop::insert_timer(Timer timer) {
  timers_.push_back(std::move(timer));
  std::push_heap(timers_.begin(), timers_.end(), TimerLater{});
  timers_scheduled_.fetch_add(1, std::memory_order_relaxed);
}

void EventLoop::do_cancel(TimerId id) {
  // Lazy cancellation: the heap entry stays where it is, callback-less,
  // and is dropped when it comes due.
  for (Timer& timer : timers_) {
    if (timer.id == id && timer.task) {
      timer.task = exec::Task{};
      timers_cancelled_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
}

bool EventLoop::fire_one_due_timer(common::TimePoint now_tp) {
  if (timers_.empty() || timers_.front().deadline > now_tp) return false;
  // Pop before running: the callback may arm timers of its own.
  std::pop_heap(timers_.begin(), timers_.end(), TimerLater{});
  Timer timer = std::move(timers_.back());
  timers_.pop_back();
  if (timer.task) {
    dispatch(timer.task, timer.deadline);
    timers_fired_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

void EventLoop::fire_due_timers() {
  if (timers_.empty()) return;
  // One instant for the sweep: a callback re-arming with a zero delay
  // waits for the next pass instead of looping here.
  const common::TimePoint now_tp = common::now();
  while (fire_one_due_timer(now_tp)) {
  }
}

int EventLoop::timer_wait_ms() const noexcept {
  if (timers_.empty()) return -1;
  const auto gap = timers_.front().deadline - common::now();
  if (gap <= common::Nanos{0}) return 0;
  const auto ms = (gap + common::Nanos{999'999}) / common::Nanos{1'000'000};
  return static_cast<int>(std::min<std::int64_t>(ms, 60'000));
}

LoopStats EventLoop::stats() const noexcept {
  LoopStats s;
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

void EventLoop::reset_stats() {
  dispatched_.store(0, std::memory_order_relaxed);
  busy_ns_.store(0, std::memory_order_relaxed);
  max_nesting_.store(0, std::memory_order_relaxed);
  delay_hist_.reset();
}

// --- the loop ---------------------------------------------------------------

void EventLoop::wake() {
  // Write the eventfd only to a parked loop: one awake in its poll window
  // finds the push by itself. Dekker pairing with the park in
  // wait_for_events(): the caller's push (or stop flag) precedes this
  // fence and the parked_ load follows it; the park stores parked_,
  // fences, then loads the queue and the stop flag. Of two seq_cst
  // fences one comes first, so either the loop sees the push and stays
  // up, or this load sees it parked.
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
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

int EventLoop::wait_for_events(epoll_event* events, int max_events) {
  // Poll through the spin window first: the next request or posted
  // completion usually arrives within it, and a loop that is still
  // awake takes it without an eventfd write or a wake. Timers due now
  // skip the window (their callbacks are already late).
  if (timer_wait_ms() != 0) {
    common::SpinWait spin;
    do {
      const int n = ::epoll_wait(epoll_fd_, events, max_events, 0);
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
  const int n = ::epoll_wait(epoll_fd_, events, max_events, timer_wait_ms());
  parked_.store(false, std::memory_order_relaxed);
  if (n >= 0) epoll_waits_.fetch_add(1, std::memory_order_relaxed);
  return n;
}

void EventLoop::drain_tasks() {
  while (exec::TaskNode* node = tasks_.pop()) run_node(node);
}

void EventLoop::run() {
  ThreadBinding bind(this);
  running_.store(true, std::memory_order_release);
  constexpr int kMaxEvents = 256;
  epoll_event events[kMaxEvents];
  for (;;) {
    drain_tasks();
    if (stop_requested_.load(std::memory_order_acquire)) break;
    fire_due_timers();
    const int n = wait_for_events(events, kMaxEvents);
    if (n < 0) {
      if (errno == EINTR) continue;
      EVMP_LOG_WARN << "event loop '" << name()
                    << "' epoll_wait failed: errno " << errno;
      break;
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.ptr == nullptr) {
        std::uint64_t value = 0;
        [[maybe_unused]] const ssize_t got =
            ::read(wake_fd_, &value, sizeof(value));
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
  timers_.clear();  // pending timers are destroyed unfired
  running_.store(false, std::memory_order_release);
}

}  // namespace evmp::event
