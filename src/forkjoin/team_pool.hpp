#pragma once
// TeamPool: process-wide cache of fork-join teams, leased per parallel
// region instead of constructed per event.
//
// The paper's Figure 9 shows per-event `parallel` regions levelling off
// because every request handler spawns a fresh helper-thread team — "the
// total number of threads in the system soars". The reproduction keeps
// that pathology observable (baselines::kAsyncParallel and the default
// httpsim EncryptionService path still construct a Team per event), and
// this pool is the fix the paper's analysis implies: a handler leases a
// cached team of the width it needs, runs its region, and the lease
// returns the team — helper threads are created once per (width, peak
// concurrency) and fj::total_helper_threads_created() stays flat as
// request load grows (the pooled series in results/fig9.csv).
//
// Leasing rules (DESIGN.md §9, elasticity in §11):
//  * lease(width) hands out an idle cached team of exactly that width,
//    creating one only when none is idle — so the population equals the
//    peak number of simultaneously active regions per width;
//  * lease_adaptive(hint) asks the WidthGovernor for a width first: a lone
//    region on an idle machine gets its full hint, concurrent regions get
//    proportionally narrower teams (the Figure 9 elasticity fix);
//  * the idle cache is bucketed by width with one lock per bucket, so
//    concurrent same-width leases (the Figure 9 request storm) contend on
//    a try_lock, not a global mutex — lease_contentions() counts the
//    times a locked bucket was actually hit;
//  * a Lease is an exclusive handle (move-only RAII): the team is never
//    shared, so Team's non-reentrancy contract is unchanged;
//  * returned teams are parked, not destroyed (their helpers cost their
//    creation once; parked helpers sleep on a futex, not the scheduler).
//    Every WidthGovernor::kDecayPeriod adaptive leases a sweep releases
//    the parked teams that stayed idle through the whole previous period,
//    down to the governor's decayed floor. A team that any lease used in
//    the period stays warm, so load that alternates between one and two
//    concurrent regions keeps both teams instead of destroying and
//    re-creating one (joining and spawning helper threads on the lease
//    path) every period; trim() releases parked teams unconditionally;
//  * the pool itself is a leaked singleton, like common::Tracer: leases
//    may unwind during late static teardown, and a destructed pool (or
//    one joining helper threads at exit) would turn every such unwind
//    into a use-after-free or a join deadlock. The OS reclaims the parked
//    threads at process exit.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "forkjoin/team.hpp"
#include "forkjoin/width_governor.hpp"

namespace evmp::fj {

/// Process-wide lease pool of reusable fork-join teams, keyed by width.
class TeamPool {
 public:
  /// Exclusive RAII handle to a pooled team; returns it on destruction.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), team_(std::move(other.team_)) {
      other.pool_ = nullptr;
    }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        release();
        pool_ = other.pool_;
        team_ = std::move(other.team_);
        other.pool_ = nullptr;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    [[nodiscard]] Team& operator*() const noexcept { return *team_; }
    [[nodiscard]] Team* operator->() const noexcept { return team_.get(); }
    explicit operator bool() const noexcept { return team_ != nullptr; }

   private:
    friend class TeamPool;
    Lease(TeamPool* pool, std::unique_ptr<Team> team)
        : pool_(pool), team_(std::move(team)) {}

    void release() noexcept {
      if (pool_ != nullptr && team_ != nullptr) {
        pool_->give_back(std::move(team_));
      }
      pool_ = nullptr;
      team_.reset();
    }

    TeamPool* pool_ = nullptr;
    std::unique_ptr<Team> team_;
  };

  /// The process-wide pool (leaked singleton — see header comment).
  static TeamPool& instance();

  TeamPool() = default;
  TeamPool(const TeamPool&) = delete;
  TeamPool& operator=(const TeamPool&) = delete;

  /// Lease an idle team of exactly `width` members, creating one if none
  /// is cached. width < 1 is clamped to 1.
  [[nodiscard]] Lease lease(int width);

  /// Lease a team whose width the WidthGovernor sizes from live load:
  /// up to `hint` members (hint <= 0 means "as wide as useful", i.e. the
  /// governor's core budget). Every kDecayPeriod adaptive leases the
  /// governor decays its load estimate and trims the idle cache to it.
  /// Allocation-free after warm-up (the allocs_per_adaptive_lease budget).
  [[nodiscard]] Lease lease_adaptive(int hint);

  /// The governor sizing adaptive leases (benches override its core
  /// budget; tests read its histograms).
  [[nodiscard]] WidthGovernor& governor() noexcept { return governor_; }

  /// Teams ever constructed by this pool (flat under steady request load —
  /// the pooled Figure 9 series).
  [[nodiscard]] std::uint64_t teams_created() const noexcept {
    return teams_created_.load(std::memory_order_relaxed);
  }
  /// Leases ever granted (cache hits + misses).
  [[nodiscard]] std::uint64_t leases_granted() const noexcept {
    return leases_granted_.load(std::memory_order_relaxed);
  }
  /// lease() calls that found their width bucket's lock held by a
  /// concurrent lease/return (the serialisation the bucketing removes
  /// relative to the old single-mutex cache).
  [[nodiscard]] std::uint64_t lease_contentions() const noexcept {
    return lease_contentions_.load(std::memory_order_relaxed);
  }
  /// Teams currently out on lease.
  [[nodiscard]] int active_leases() const noexcept {
    return governor_.active();
  }
  /// Peak number of simultaneously leased teams (monotone).
  [[nodiscard]] int leased_high_water() const noexcept {
    return governor_.high_water();
  }
  /// Idle teams currently parked in the cache (all widths).
  [[nodiscard]] std::size_t idle_count() const noexcept {
    return idle_total_.load(std::memory_order_relaxed);
  }
  /// Deprecated spelling of idle_count().
  [[nodiscard]] std::size_t cached() const { return idle_count(); }

  /// Release idle cached teams until at most `floor` remain parked
  /// (destroying a team joins its helper threads). Teams out on lease are
  /// unaffected and return to the cache later. Widest teams are dropped
  /// first — they pin the most helper threads per cache slot.
  void trim(std::size_t floor = 0);

  /// Destroy all idle cached teams (tests / memory-pressure hook).
  void clear() { trim(0); }

  /// Copy pool + governor statistics into common::Tracer counters under
  /// "<prefix>." (e.g. "pool.lease_contentions", "pool.granted_w2").
  void publish_counters(std::string_view prefix = "pool") const;

 private:
  // Widths 1..kMaxBucketWidth get a direct-mapped bucket; wider teams
  // share the overflow bucket (index 0) and are matched by exact width.
  static constexpr int kMaxBucketWidth = 64;

  /// An idle team and the sweep count when it was parked.
  struct Parked {
    std::unique_ptr<Team> team;
    std::uint64_t since_sweep = 0;
  };

  struct Bucket {
    std::mutex mu;
    std::vector<Parked> teams;
  };

  Bucket& bucket_for(int width) noexcept {
    return buckets_[width >= 1 && width <= kMaxBucketWidth
                        ? static_cast<std::size_t>(width)
                        : 0];
  }

  void give_back(std::unique_ptr<Team> team);

  /// Release idle teams parked before sweep `parked_before` (all of them
  /// for UINT64_MAX), widest first, until at most `floor` remain.
  void trim_parked_before(std::size_t floor, std::uint64_t parked_before);

  std::array<Bucket, static_cast<std::size_t>(kMaxBucketWidth) + 1> buckets_;
  std::atomic<std::size_t> idle_total_{0};
  std::atomic<std::uint64_t> sweeps_{0};  ///< decay sweeps so far
  std::atomic<std::uint64_t> teams_created_{0};
  std::atomic<std::uint64_t> leases_granted_{0};
  std::atomic<std::uint64_t> lease_contentions_{0};
  WidthGovernor governor_;
};

}  // namespace evmp::fj
