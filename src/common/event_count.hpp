#pragma once
// EventCount: the classic "eventcount" sleep/wake primitive (Vyukov-style,
// as popularised by folly::EventCount), packed into one 64-bit atomic word:
// low 32 bits = number of waiters currently between prepare_wait() and
// wake-up, high 32 bits = notification epoch.
//
// It lets a consumer park on an arbitrary lock-free condition without a
// mutex and without lost wakeups:
//
//   consumer:  key = ec.prepare_wait();        // announce intent (RMW)
//              if (queue.try_pop(x)) { ec.cancel_wait(); ... }
//              else ec.commit_wait(key);       // sleep unless epoch moved
//
//   producer:  queue.push(x);                  // make condition true
//              ec.notify_one();                // bump epoch, wake if waiters
//
// Correctness: prepare_wait() and notify_*() are both acq_rel RMWs on the
// same word, so they are totally ordered. If the producer's push lands
// after the consumer's re-check, the producer's epoch bump is ordered
// after prepare_wait() and commit_wait() observes the changed epoch and
// returns immediately; if the push landed before the re-check, the
// consumer saw the item and cancelled. Either way no wakeup is lost — the
// property tests/test_chase_lev.cpp regression-tests by hammering a
// single-slot handoff.
//
// Replaces the executor's single `idle_cv_` + 1 ms polling: notify_one()
// when there are no waiters is one relaxed-failing RMW and NO syscall, so
// the task-post fast path stays cheap, and parked workers wake exactly
// when work arrives instead of rescanning N queues every millisecond in a
// thundering herd.

#include <atomic>
#include <cstdint>

namespace evmp::common {

class EventCount {
 public:
  /// Opaque ticket from prepare_wait(), consumed by commit/cancel.
  class WaitKey {
   public:
    explicit WaitKey(std::uint32_t epoch) : epoch_(epoch) {}

   private:
    friend class EventCount;
    std::uint32_t epoch_;
  };

  EventCount() = default;
  EventCount(const EventCount&) = delete;
  EventCount& operator=(const EventCount&) = delete;

  /// Announce intent to sleep. MUST be followed by exactly one of
  /// commit_wait(key) or cancel_wait(); re-check the wait condition in
  /// between.
  [[nodiscard]] WaitKey prepare_wait() noexcept {
    const std::uint64_t prev =
        word_.fetch_add(kWaiterInc, std::memory_order_acq_rel);
    return WaitKey(static_cast<std::uint32_t>(prev >> kEpochShift));
  }

  /// Condition became true between prepare and commit: stand down.
  void cancel_wait() noexcept {
    word_.fetch_sub(kWaiterInc, std::memory_order_acq_rel);
  }

  /// Park until the epoch moves past the one captured by prepare_wait().
  /// Returns immediately if a notify already intervened.
  void commit_wait(WaitKey key) noexcept {
    while (true) {
      const std::uint64_t w = word_.load(std::memory_order_acquire);
      if (static_cast<std::uint32_t>(w >> kEpochShift) != key.epoch_) break;
      word_.wait(w, std::memory_order_acquire);
    }
    word_.fetch_sub(kWaiterInc, std::memory_order_acq_rel);
  }

  /// Wake one waiter (if any). Always bumps the epoch so a concurrent
  /// prepare/commit pair cannot miss this notification.
  void notify_one() noexcept {
    const std::uint64_t prev =
        word_.fetch_add(kEpochInc, std::memory_order_acq_rel);
    if ((prev & kWaiterMask) != 0) word_.notify_one();
  }

  /// Wake all waiters (shutdown, barrier release).
  void notify_all() noexcept {
    const std::uint64_t prev =
        word_.fetch_add(kEpochInc, std::memory_order_acq_rel);
    if ((prev & kWaiterMask) != 0) word_.notify_all();
  }

  /// True if any thread is between prepare_wait() and wake-up. Used by
  /// producers to skip even the epoch bump on the ultra-hot path; callers
  /// must tolerate the inherent race (a waiter arriving just after the
  /// load is caught by its own re-check of the condition).
  [[nodiscard]] bool has_waiters() const noexcept {
    return (word_.load(std::memory_order_acquire) & kWaiterMask) != 0;
  }

 private:
  static constexpr std::uint64_t kWaiterInc = 1;
  static constexpr std::uint64_t kWaiterMask = 0xffffffffULL;
  static constexpr int kEpochShift = 32;
  static constexpr std::uint64_t kEpochInc = 1ULL << kEpochShift;

  alignas(64) std::atomic<std::uint64_t> word_{0};
};

}  // namespace evmp::common
