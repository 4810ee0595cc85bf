#pragma once
// Worksharing constructs over a fork-join Team: the `#pragma omp for`
// equivalents (static / dynamic / guided schedules) plus reductions.

#include <algorithm>
#include <atomic>
#include <limits>
#include <type_traits>
#include <vector>

#include "forkjoin/team.hpp"

namespace evmp::fj {

/// Loop schedule, mirroring OpenMP's schedule(kind[, chunk]) clause.
enum class Schedule {
  kStatic,   ///< contiguous blocks (chunk==0) or round-robin chunks
  kDynamic,  ///< first-come-first-served chunks from a shared counter
  kGuided,   ///< shrinking chunks: max(chunk, remaining / (2 * team))
};

/// Spelling for reports ("static", "dynamic", "guided").
constexpr const char* to_string(Schedule s) noexcept {
  switch (s) {
    case Schedule::kStatic: return "static";
    case Schedule::kDynamic: return "dynamic";
    case Schedule::kGuided: return "guided";
  }
  return "?";
}

/// Dispatch contiguous index ranges of [lo, hi) to team members under a
/// schedule. `body(tid, range_lo, range_hi)` is invoked once per assigned
/// range; ranges partition [lo, hi) exactly. This is the primitive both
/// parallel_for and the kernels' batched work model build on.
template <class PerRange>
void parallel_ranges(Team& team, long lo, long hi, PerRange&& body,
                     Schedule sched = Schedule::kStatic, long chunk = 0) {
  const long n = hi - lo;
  if (n <= 0) return;
  switch (sched) {
    case Schedule::kStatic: {
      if (chunk <= 0) {
        // Block partition: thread t gets [lo + t*n/p, lo + (t+1)*n/p).
        team.parallel([&](int tid, int nth) {
          const long begin = lo + tid * n / nth;
          const long end = lo + (tid + 1) * n / nth;
          if (begin < end) body(tid, begin, end);
        });
      } else {
        // Round-robin chunks of fixed size.
        team.parallel([&](int tid, int nth) {
          const long stride = static_cast<long>(nth) * chunk;
          for (long base = lo + tid * chunk; base < hi; base += stride) {
            body(tid, base, std::min(hi, base + chunk));
          }
        });
      }
      break;
    }
    case Schedule::kDynamic: {
      const long c = chunk <= 0 ? 1 : chunk;
      std::atomic<long> next{lo};
      team.parallel([&](int tid, int) {
        for (;;) {
          const long base = next.fetch_add(c, std::memory_order_relaxed);
          if (base >= hi) break;
          body(tid, base, std::min(hi, base + c));
        }
      });
      break;
    }
    case Schedule::kGuided: {
      const long min_chunk = chunk <= 0 ? 1 : chunk;
      std::atomic<long> next{lo};
      team.parallel([&](int tid, int nth) {
        long seen = next.load(std::memory_order_relaxed);
        while (seen < hi) {
          // Claim by CAS, clamped to what actually remains: the shared
          // counter can never move past hi, so back-to-back long-running
          // loops cannot creep it toward overflow (a fetch_add here used
          // to overshoot by one chunk per exiting thread). A failed CAS
          // reloads `seen` and re-sizes the chunk from fresh state.
          const long remaining = hi - seen;
          const long take = std::min(
              remaining,
              std::max(min_chunk, remaining / (2 * static_cast<long>(nth))));
          if (next.compare_exchange_weak(seen, seen + take,
                                         std::memory_order_relaxed)) {
            body(tid, seen, seen + take);
            seen = next.load(std::memory_order_relaxed);
          }
        }
      });
      break;
    }
  }
}

namespace detail {

/// Cache-line padded accumulator slot to avoid false sharing in reductions.
template <class T>
struct alignas(64) Padded {
  T value;
};

// Reduction identity elements, referenced by evmpcc-generated code for
// `reduction(op: var)` clauses (OpenMP initialises each private copy with
// the operator's identity).
template <class T> constexpr T ident_plus() { return T{}; }
template <class T> constexpr T ident_mul() { return static_cast<T>(1); }
template <class T> constexpr T ident_min() { return std::numeric_limits<T>::max(); }
template <class T> constexpr T ident_max() { return std::numeric_limits<T>::lowest(); }
template <class T> constexpr T ident_band() { return static_cast<T>(~T{}); }
template <class T> constexpr T ident_land() { return static_cast<T>(true); }

/// Shared tail of the reductions over an externally provided partials
/// array (inline stack slots or heap fallback): `per_range(slot, lo, hi)`
/// folds one assigned range into the member's slot.
template <class T, class Op, class PerRange>
T reduce_into(Team& team, long lo, long hi, T identity, Op& op,
              PerRange& per_range, Schedule sched, long chunk,
              Padded<T>* partials, std::size_t num_slots) {
  parallel_ranges(
      team, lo, hi,
      [&](int tid, long range_lo, long range_hi) {
        per_range(partials[static_cast<std::size_t>(tid)].value, range_lo,
                  range_hi);
      },
      sched, chunk);
  T result = identity;
  for (std::size_t i = 0; i < num_slots; ++i) {
    result = op(result, partials[i].value);
  }
  return result;
}

/// One padded partial per member: teams of up to 16 keep them on the
/// caller's stack (SBO) — hot per-event reductions perform no heap
/// allocation. Wider teams, and element types that cannot be
/// default-constructed into the inline slots, fall back to a heap vector.
template <class T, class Op, class PerRange>
T reduce_with_slots(Team& team, long lo, long hi, T identity, Op& op,
                    PerRange& per_range, Schedule sched, long chunk) {
  const auto nth = static_cast<std::size_t>(team.num_threads());
  constexpr std::size_t kInlineSlots = 16;
  if constexpr (std::is_default_constructible_v<T>) {
    if (nth <= kInlineSlots) {
      Padded<T> partials[kInlineSlots];
      for (std::size_t i = 0; i < nth; ++i) partials[i].value = identity;
      return reduce_into(team, lo, hi, identity, op, per_range, sched, chunk,
                         partials, nth);
    }
  }
  std::vector<Padded<T>> partials(nth, Padded<T>{identity});
  return reduce_into(team, lo, hi, identity, op, per_range, sched, chunk,
                     partials.data(), nth);
}

}  // namespace detail

/// `#pragma omp parallel for`: run body(i) for every i in [lo, hi).
/// Blocks the calling thread (which participates) until the loop completes.
template <class F>
void parallel_for(Team& team, long lo, long hi, F&& body,
                  Schedule sched = Schedule::kStatic, long chunk = 0) {
  parallel_ranges(
      team, lo, hi,
      [&](int, long range_lo, long range_hi) {
        for (long i = range_lo; i < range_hi; ++i) body(i);
      },
      sched, chunk);
}

/// `#pragma omp parallel for reduction(op:acc)`: fold body(i) over [lo, hi).
/// `op(T, T) -> T` must be associative; `identity` is its neutral element.
/// Allocation-free for teams of up to 16 members (detail::reduce_with_slots).
template <class T, class Op, class F>
T parallel_reduce(Team& team, long lo, long hi, T identity, Op op, F&& body,
                  Schedule sched = Schedule::kStatic, long chunk = 0) {
  auto per_range = [&](T& slot, long range_lo, long range_hi) {
    T local = slot;
    for (long i = range_lo; i < range_hi; ++i) local = op(local, body(i));
    slot = local;
  };
  return detail::reduce_with_slots(team, lo, hi, identity, op, per_range,
                                   sched, chunk);
}

/// As parallel_reduce, but `body(range_lo, range_hi) -> T` folds a whole
/// assigned range at once (the kernels' batched work model).
template <class T, class Op, class F>
T parallel_reduce_ranges(Team& team, long lo, long hi, T identity, Op op,
                         F&& body, Schedule sched = Schedule::kStatic,
                         long chunk = 0) {
  auto per_range = [&](T& slot, long range_lo, long range_hi) {
    slot = op(slot, body(range_lo, range_hi));
  };
  return detail::reduce_with_slots(team, lo, hi, identity, op, per_range,
                                   sched, chunk);
}

}  // namespace evmp::fj
