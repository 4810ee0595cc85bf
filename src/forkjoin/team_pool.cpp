#include "forkjoin/team_pool.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <string>
#include <utility>

#include "common/tracing.hpp"

namespace evmp::fj {

TeamPool& TeamPool::instance() {
  // Leaked on purpose (see header): leases unwinding during late static
  // teardown must find a live pool, and a pool destructor would join
  // helper threads at exit.
  static TeamPool* pool = new TeamPool();
  return *pool;
}

TeamPool::Lease TeamPool::lease(int width) {
  if (width < 1) width = 1;
  leases_granted_.fetch_add(1, std::memory_order_relaxed);
  governor_.on_lease();  // every lease is a running region: a load signal
  Bucket& bucket = bucket_for(width);
  {
    std::unique_lock lk(bucket.mu, std::try_to_lock);
    if (!lk.owns_lock()) {
      lease_contentions_.fetch_add(1, std::memory_order_relaxed);
      lk.lock();
    }
    // Direct-mapped buckets hold one width; the overflow bucket (> 64)
    // mixes widths and needs an exact-match scan. Take the most recently
    // parked match (LIFO): the warmest team is reused, and a team the
    // load no longer needs ages toward a sweep.
    auto& teams = bucket.teams;
    for (auto it = teams.rbegin(); it != teams.rend(); ++it) {
      if (it->team->num_threads() != width) continue;
      std::unique_ptr<Team> team = std::move(it->team);
      teams.erase(std::next(it).base());
      idle_total_.fetch_sub(1, std::memory_order_relaxed);
      return Lease(this, std::move(team));
    }
  }
  // Miss: construct outside the lock (Team's constructor spawns helper
  // threads; holding the bucket lock across that would serialise every
  // concurrent first-touch lease of this width).
  teams_created_.fetch_add(1, std::memory_order_relaxed);
  return Lease(this, std::make_unique<Team>(width));
}

TeamPool::Lease TeamPool::lease_adaptive(int hint) {
  const int width = governor_.decide(hint);
  if (governor_.decay_due()) {
    // Load has had kDecayPeriod leases to re-peak the estimate. A team
    // parked before the previous sweep was not needed by any of them: a
    // stale burst remnant whose helper threads can be released, as far
    // as the decayed floor allows.
    const std::uint64_t previous =
        sweeps_.fetch_add(1, std::memory_order_relaxed);
    trim_parked_before(governor_.decay(), previous);
  }
  return lease(width);
}

void TeamPool::give_back(std::unique_ptr<Team> team) {
  governor_.on_release();
  Bucket& bucket = bucket_for(team->num_threads());
  std::scoped_lock lk(bucket.mu);
  bucket.teams.push_back(
      Parked{std::move(team), sweeps_.load(std::memory_order_relaxed)});
  idle_total_.fetch_add(1, std::memory_order_relaxed);
}

void TeamPool::trim(std::size_t floor) {
  trim_parked_before(floor, std::numeric_limits<std::uint64_t>::max());
}

void TeamPool::trim_parked_before(std::size_t floor,
                                  std::uint64_t parked_before) {
  if (idle_total_.load(std::memory_order_relaxed) <= floor) return;
  std::vector<std::unique_ptr<Team>> drained;
  // Walk widest-first: wide teams pin the most helper threads per slot.
  // The overflow bucket (index 0) holds the widest teams of all, then the
  // direct-mapped buckets from kMaxBucketWidth down to 1.
  for (std::size_t step = 0; step <= static_cast<std::size_t>(kMaxBucketWidth);
       ++step) {
    const std::size_t index =
        step == 0 ? 0 : static_cast<std::size_t>(kMaxBucketWidth) + 1 - step;
    Bucket& bucket = buckets_[index];
    std::scoped_lock lk(bucket.mu);
    // Oldest first within a bucket: front entries were parked earliest.
    auto& teams = bucket.teams;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < teams.size(); ++i) {
      if (teams[i].since_sweep < parked_before &&
          idle_total_.load(std::memory_order_relaxed) > floor) {
        drained.push_back(std::move(teams[i].team));
        idle_total_.fetch_sub(1, std::memory_order_relaxed);
      } else {
        teams[keep++] = std::move(teams[i]);
      }
    }
    teams.resize(keep);
    if (idle_total_.load(std::memory_order_relaxed) <= floor) break;
  }
  // Teams (and their helper-thread joins) die outside the locks.
}

void TeamPool::publish_counters(std::string_view prefix) const {
  auto& tracer = common::Tracer::instance();
  const std::string base(prefix);
  tracer.set_counter(base + ".teams_created",
                     teams_created_.load(std::memory_order_relaxed));
  tracer.set_counter(base + ".leases_granted",
                     leases_granted_.load(std::memory_order_relaxed));
  tracer.set_counter(base + ".lease_contentions",
                     lease_contentions_.load(std::memory_order_relaxed));
  tracer.set_counter(base + ".leased_high_water",
                     static_cast<std::uint64_t>(
                         std::max(0, governor_.high_water())));
  tracer.set_counter(base + ".idle_teams",
                     idle_total_.load(std::memory_order_relaxed));
  governor_.publish_counters(base);
}

}  // namespace evmp::fj
