#pragma once
// AdmissionGate: the stop protocol of every queue that foreign threads
// post into — event::EventLoop and exec::WorkStealingExecutor.
//
// One word: bit 0 is "closed"; the rest counts producers between their
// admission and the end of their push (kShare each). A producer enters,
// links its node and writes its wake, then leaves. close() sets the bit
// and then waits for the count to drain. Every later write to the word is
// an RMW, so the acquire load that sees no shares synchronises with all
// their releases: when close() returns, each admitted push is fully
// linked and a consumer's final drain sees it. A post is therefore run or
// refused, never stranded half-linked behind a stopped consumer.

#include <atomic>
#include <cstdint>
#include <thread>

namespace evmp::common {

class AdmissionGate {
 public:
  /// Take a producer share; false (and no share held) once close() began.
  bool enter() noexcept {
    if ((word_.fetch_add(kShare, std::memory_order_acquire) & kClosed) == 0) {
      return true;
    }
    word_.fetch_sub(kShare, std::memory_order_release);
    return false;
  }

  /// Drop the share of a successful enter(); call after the push and its
  /// wake.
  void leave() noexcept { word_.fetch_sub(kShare, std::memory_order_release); }

  /// Refuse every later enter(), then wait out the producers admitted
  /// before. True for the one call that closed the gate; a repeat returns
  /// false at once.
  bool close() noexcept {
    if ((word_.fetch_or(kClosed, std::memory_order_acq_rel) & kClosed) != 0) {
      return false;
    }
    while (word_.load(std::memory_order_acquire) != kClosed) {
      std::this_thread::yield();
    }
    return true;
  }

 private:
  static constexpr std::uint64_t kClosed = 1;
  static constexpr std::uint64_t kShare = 2;
  alignas(64) std::atomic<std::uint64_t> word_{0};
};

}  // namespace evmp::common
