#pragma once
// Fork-join thread team: the traditional OpenMP execution model the paper's
// event-driven extension coexists with.
//
// Semantics mirror `#pragma omp parallel`: the encountering thread becomes
// the master (thread id 0) and *participates* in the region, and the region
// has an implicit join — the encountering thread cannot proceed until every
// member finished. That inherent "join" is exactly what the paper identifies
// as incompatible with event dispatching (the EDT is trapped in the region),
// which the benchmarks reproduce via the "synchronous parallel" approach.
//
// Synchronisation: fork, join and barrier() are built on C++20 atomic
// wait/notify with a spin-then-park window (common::SpinWait) instead of
// the previous mutex + two condition variables + mutex-based barrier. A
// fork is one release store (the task pointer) plus one epoch bump; a
// helper wakes from the epoch word; the join is an atomic countdown the
// master spins on briefly before parking; barrier() is sense-reversing on
// an arrival counter + generation epoch. DESIGN.md §9 documents the
// protocol. For the per-event-region thread-creation pathology (Figure 9)
// and its fix, see TeamPool in team_pool.hpp.

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace evmp::fj {

/// Process-wide count of fork-join helper threads ever created. The paper's
/// Figure 9 attributes the throughput level-off of per-event parallelisation
/// to "the total number of threads in the system soar[ing] to a high value";
/// this counter makes that observable in the reproduction.
std::uint64_t total_helper_threads_created() noexcept;

/// omp_get_thread_num(): the calling thread's id within the innermost
/// active fork-join region, or 0 outside any region.
int thread_num() noexcept;

/// omp_get_num_threads(): the innermost active region's team size, or 1
/// outside any region.
int num_threads() noexcept;

/// omp_in_parallel(): true while inside a fork-join region.
bool in_parallel() noexcept;

/// Non-owning reference to a region body `fn(thread_id, team_size)`. A
/// region's body outlives the region (parallel() joins before it
/// returns), so the fork publishes a pointer to the caller's callable
/// instead of a type-erased copy: no allocation however large the capture
/// — std::function would heap-allocate any `[&]` body that captures more
/// than 16 bytes.
class RegionFn {
 public:
  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, RegionFn> &&
                std::is_invocable_v<std::remove_reference_t<F>&, int, int>>>
  RegionFn(F&& fn) noexcept  // implicit: parallel([&](int, int) {...})
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(fn)))),
        call_(&invoke<std::remove_reference_t<F>>) {}

  void operator()(int tid, int nth) const { call_(obj_, tid, nth); }

 private:
  template <class F>
  static void invoke(void* obj, int tid, int nth) {
    (*static_cast<F*>(obj))(tid, nth);
  }

  void* obj_;
  void (*call_)(void*, int, int);
};

/// A reusable fork-join team of `num_threads` members (1 master = the
/// thread calling parallel(), plus num_threads-1 pool helpers).
class Team {
 public:
  /// Creates the helper threads immediately. num_threads >= 1.
  explicit Team(int num_threads);
  ~Team();
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  /// Run `fn(thread_id, team_size)` on every member; the caller runs as
  /// thread 0 and blocks until all members return (fork-join). If any member
  /// throws, the first exception is rethrown here after the join.
  /// Not reentrant: a region body must not call parallel() on the same team.
  void parallel(RegionFn fn);

  /// In-region barrier: every team member must call it the same number of
  /// times (like `#pragma omp barrier`). Only valid inside parallel().
  void barrier();

  /// In-region mutual exclusion (like `#pragma omp critical`).
  void critical(const std::function<void()>& fn);

  [[nodiscard]] int num_threads() const noexcept { return n_; }

  /// Fork-join regions executed so far.
  [[nodiscard]] std::uint64_t regions() const noexcept {
    return regions_.load(std::memory_order_relaxed);
  }

 private:
  void helper_main(int tid);
  void run_member(int tid, const RegionFn& fn);

  const int n_;

  // Fork protocol: the master publishes task_ (release), then bumps the
  // fork epoch (release) and notifies; a helper acquiring the new epoch
  // therefore sees the task pointer. fork_epoch_ is also bumped (without a
  // region) at destruction so parked helpers wake and observe stopping_.
  std::atomic<const RegionFn*> task_{nullptr};
  std::atomic<std::uint64_t> fork_epoch_{0};
  std::atomic<std::uint64_t> regions_{0};
  std::atomic<bool> stopping_{false};

  // Join protocol: helpers count themselves done; the master spins briefly,
  // then parks on the count. Only the final helper notifies.
  std::atomic<int> helpers_done_{0};

  // Sense-reversing barrier: arrivals accumulate; the last arriver resets
  // the count *before* releasing the generation, so the next barrier's
  // arrivals (which can only start after the release) find zero.
  std::atomic<int> bar_arrived_{0};
  std::atomic<std::uint64_t> bar_generation_{0};

  std::mutex crit_mu_;

  std::mutex err_mu_;
  std::exception_ptr first_error_;

  std::vector<std::jthread> helpers_;  // last member: starts after state init,
                                       // joins (in ~Team) before state dies
};

}  // namespace evmp::fj
