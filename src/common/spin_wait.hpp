#pragma once
// SpinWait: the one spin phase every idle path in the runtime runs before
// it parks — stealing-pool workers, fork-join helpers, joins and
// barriers, completion and tag waits, the event loop's poll window.
//
// Why a time window and not a step count. On a multi-core host the cheap
// hand-off is to a consumer that is still awake: a futex or eventfd wake
// costs the waker a syscall and, measured on a 4-vCPU VM, places the
// woken thread on the *waker's* CPU (300 of 300 wakes in a two-thread
// microbench), where it waits until the waker blocks. A pinned wakee
// avoids that but waits 17–47 µs for a halted vCPU. Back-to-back events
// typically arrive within tens of microseconds of each other (a 25k req/s
// Poisson stream leaves a gap under 50 µs 71 % of the time), so a
// consumer that stays awake through such a gap takes the next item with
// no wake at all. A pause count cannot promise that: its duration varies
// tenfold between CPU models. So the spin runs for a fixed window:
//
//  * each step is one pause instruction (the caller re-probes its
//    condition between steps);
//  * every kClockEvery-th step reads the clock and yields, so a spinner
//    that shares its CPU with the thread it waits for hands it over;
//  * once kWindow has elapsed spin() returns false and the caller parks
//    on its real waiting primitive, exactly as it would without a spin.
//
// On one usable CPU (the affinity mask, see Topology::usable_cpus) the
// window is zero: the thread being waited for cannot run while this one
// spins, so spin() only yields kYields times — a direct hand-over — and
// then tells the caller to park.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>

#include "common/topology.hpp"

namespace evmp::common {

/// One pause instruction (a yield where the ISA has none).
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

class SpinWait {
 public:
  /// The spin window on a host with more than one usable CPU.
  static constexpr std::chrono::nanoseconds kWindow =
      std::chrono::microseconds{50};

  /// The window for a process with `usable_cpus` usable CPUs.
  static constexpr std::chrono::nanoseconds window_for(
      int usable_cpus) noexcept {
    return usable_cpus > 1 ? kWindow : std::chrono::nanoseconds{0};
  }

  /// The window on this host (zero on one usable CPU).
  static std::chrono::nanoseconds window() noexcept {
    static const std::chrono::nanoseconds w =
        window_for(Topology::usable_cpus());
    return w;
  }

  SpinWait() noexcept = default;

  /// A spin phase no longer than `cap` (a timed wait passes its timeout).
  explicit SpinWait(std::chrono::nanoseconds cap) noexcept
      : limit_(std::min(cap, window())) {}

  /// One step. Returns false once the caller should stop spinning and
  /// park; re-probe the wait condition between calls.
  bool spin() noexcept {
    if (limit_.count() <= 0) {
      if (steps_ >= kYields) return false;
      ++steps_;
      std::this_thread::yield();
      return true;
    }
    if (steps_ == 0) start_ = std::chrono::steady_clock::now();
    ++steps_;
    cpu_relax();
    if (steps_ % kClockEvery == 0) {
      if (std::chrono::steady_clock::now() - start_ >= limit_) return false;
      std::this_thread::yield();
    }
    return true;
  }

  /// Start a fresh window (the caller made progress).
  void reset() noexcept { steps_ = 0; }

 private:
  static constexpr std::uint32_t kClockEvery = 16;
  static constexpr std::uint32_t kYields = 16;

  std::chrono::nanoseconds limit_ = window();
  std::chrono::steady_clock::time_point start_{};
  std::uint32_t steps_ = 0;
};

}  // namespace evmp::common
