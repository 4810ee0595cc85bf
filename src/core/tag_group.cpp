#include "core/tag_group.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/spin_wait.hpp"

namespace evmp {

void TagGroup::leave(std::exception_ptr error) noexcept {
  if (error) {
    while (error_lock_.test_and_set(std::memory_order_acquire)) {
      common::cpu_relax();
    }
    if (!first_error_) first_error_ = std::move(error);
    error_lock_.clear(std::memory_order_release);
    has_error_.store(true, std::memory_order_release);
  }
  // The decrement is the LAST access to this group: a waiter observing
  // zero may immediately destroy the registry (runtime teardown). Atomic
  // RMWs extend the release sequence, so a waiter's acquire load of zero
  // sees every leaver's prior writes, including the error publication.
  count_.fetch_sub(1, std::memory_order_release);
}

void TagGroup::wait(const std::function<bool()>& try_help) {
  // Lock-free join: poll the counter, helping when a helper is supplied.
  // Backoff in two phases: the common::SpinWait window (pause-polls while
  // leavers are a cache miss away; on one usable CPU a few yields that
  // hand the CPU to the leaver), then escalating naps capped at 100 us —
  // the quantum the seed's condvar path used between help attempts. Each
  // successful help restarts both.
  common::SpinWait spin;
  std::chrono::nanoseconds nap{1000};
  while (count_.load(std::memory_order_acquire) > 0) {
    if (try_help && try_help()) {
      spin.reset();
      nap = std::chrono::nanoseconds{1000};
      continue;
    }
    if (spin.spin()) continue;
    std::this_thread::sleep_for(nap);
    nap = std::min(nap * 2, std::chrono::nanoseconds{100000});
  }
  if (has_error_.load(std::memory_order_acquire)) {
    std::exception_ptr err;
    while (error_lock_.test_and_set(std::memory_order_acquire)) {
      common::cpu_relax();
    }
    err = std::move(first_error_);
    first_error_ = nullptr;
    has_error_.store(false, std::memory_order_relaxed);
    error_lock_.clear(std::memory_order_release);
    if (err) std::rethrow_exception(err);
  }
}

TagRegistry::TagRegistry() {
  for (Shard& shard : shards_) {
    shard.groups.reserve(8);  // first-use inserts stay rehash-free
  }
}

TagGroup& TagRegistry::group(std::string_view tag) {
  const std::size_t hash = TransparentHash{}(tag);
  Shard& shard = shards_[hash & (kShards - 1)];
  std::scoped_lock lk(shard.mu);
  auto it = shard.groups.find(tag);
  if (it == shard.groups.end()) {
    it = shard.groups
             .emplace(std::string(tag), std::make_unique<TagGroup>())
             .first;
    created_.fetch_add(1, std::memory_order_relaxed);
  }
  return *it->second;
}

std::size_t TagRegistry::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::scoped_lock lk(shard.mu);
    total += shard.groups.size();
  }
  return total;
}

}  // namespace evmp
