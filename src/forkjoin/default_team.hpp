#pragma once
// Process-wide default fork-join team: the execution context behind
// translated `#pragma omp parallel [for]` directives that carry no
// num_threads clause (OpenMP's nthreads-var ICV).
//
// Team::parallel is not reentrant and a Team must not run two regions
// concurrently, so access to the default team is serialised — concurrent
// regions from different threads simply queue, which matches OpenMP's
// behaviour of a single contended machine rather than crashing.

#include <mutex>

#include "forkjoin/parallel_for.hpp"
#include "forkjoin/team.hpp"

namespace evmp::fj {

/// The default team, sized from EVMP_NUM_THREADS (else the usable-CPU
/// count, common::Topology::usable_cpus). Created on first use.
Team& default_team();

/// Serialises regions on the default team.
std::mutex& default_team_mutex();

/// `#pragma omp parallel` on the default team.
template <class F>
void default_parallel(F&& fn) {
  std::scoped_lock lk(default_team_mutex());
  default_team().parallel(std::forward<F>(fn));
}

/// `#pragma omp parallel for` on the default team.
template <class F>
void default_parallel_for(long lo, long hi, F&& body,
                          Schedule sched = Schedule::kStatic,
                          long chunk = 0) {
  std::scoped_lock lk(default_team_mutex());
  parallel_for(default_team(), lo, hi, std::forward<F>(body), sched, chunk);
}

/// Range-based form used by translated reductions.
template <class PerRange>
void default_parallel_ranges(long lo, long hi, PerRange&& body,
                             Schedule sched = Schedule::kStatic,
                             long chunk = 0) {
  std::scoped_lock lk(default_team_mutex());
  parallel_ranges(default_team(), lo, hi, std::forward<PerRange>(body),
                  sched, chunk);
}

}  // namespace evmp::fj
