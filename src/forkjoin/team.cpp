#include "forkjoin/team.hpp"

#include "common/spin_wait.hpp"

namespace evmp::fj {

namespace {
std::atomic<std::uint64_t> g_helpers_created{0};

// Innermost-region context of the current thread (omp_get_thread_num /
// omp_get_num_threads). Saved/restored around run_member so nested teams
// report their own region.
thread_local int t_thread_num = 0;
thread_local int t_num_threads = 1;
thread_local bool t_in_parallel = false;
}  // namespace

std::uint64_t total_helper_threads_created() noexcept {
  return g_helpers_created.load(std::memory_order_relaxed);
}

int thread_num() noexcept { return t_thread_num; }
int num_threads() noexcept { return t_num_threads; }
bool in_parallel() noexcept { return t_in_parallel; }

Team::Team(int num_threads) : n_(num_threads < 1 ? 1 : num_threads) {
  helpers_.reserve(static_cast<std::size_t>(n_ - 1));
  for (int tid = 1; tid < n_; ++tid) {
    helpers_.emplace_back([this, tid] { helper_main(tid); });
  }
  g_helpers_created.fetch_add(static_cast<std::uint64_t>(n_ - 1),
                              std::memory_order_relaxed);
}

Team::~Team() {
  // stopping_ before the epoch bump: a helper woken by the bump must see
  // the stop flag. Helpers are joined (jthread) before any member dies, so
  // a straggler mid-notify still addresses live atomics.
  stopping_.store(true, std::memory_order_release);
  fork_epoch_.fetch_add(1, std::memory_order_release);
  fork_epoch_.notify_all();
  helpers_.clear();  // jthread joins
}

void Team::run_member(int tid, const RegionFn& fn) {
  const int prev_tid = t_thread_num;
  const int prev_n = t_num_threads;
  const bool prev_in = t_in_parallel;
  t_thread_num = tid;
  t_num_threads = n_;
  t_in_parallel = true;
  try {
    fn(tid, n_);
  } catch (...) {
    std::scoped_lock lk(err_mu_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  t_thread_num = prev_tid;
  t_num_threads = prev_n;
  t_in_parallel = prev_in;
}

void Team::parallel(RegionFn fn) {
  regions_.fetch_add(1, std::memory_order_relaxed);
  if (n_ == 1) {
    // Degenerate team: run on the encountering thread, but keep the
    // exception contract identical to the multi-threaded path.
    run_member(0, fn);
  } else {
    // Fork: publish the task, then open the gate. The epoch's release
    // bump + the helpers' acquire load order the task_ store before any
    // helper's read.
    task_.store(&fn, std::memory_order_release);
    helpers_done_.store(0, std::memory_order_relaxed);
    fork_epoch_.fetch_add(1, std::memory_order_release);
    fork_epoch_.notify_all();

    run_member(0, fn);  // master participates (fork-join)

    // Join: spin briefly (helpers usually finish within the master's own
    // tail), then park on the countdown word.
    common::SpinWait spin;
    for (;;) {
      const int done = helpers_done_.load(std::memory_order_acquire);
      if (done == n_ - 1) break;
      if (!spin.spin()) helpers_done_.wait(done, std::memory_order_acquire);
    }
    task_.store(nullptr, std::memory_order_relaxed);
  }
  std::exception_ptr err;
  {
    std::scoped_lock lk(err_mu_);
    err = first_error_;
    first_error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

void Team::helper_main(int tid) {
  std::uint64_t seen = 0;
  for (;;) {
    // Wait for the next fork (or stop): spin-then-park on the epoch word.
    common::SpinWait spin;
    std::uint64_t epoch = fork_epoch_.load(std::memory_order_acquire);
    while (epoch == seen) {
      if (!spin.spin()) fork_epoch_.wait(seen, std::memory_order_acquire);
      epoch = fork_epoch_.load(std::memory_order_acquire);
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    seen = epoch;
    const auto* fn = task_.load(std::memory_order_acquire);
    if (fn != nullptr) run_member(tid, *fn);
    // Countdown; only the final helper pays the wake syscall. The master
    // may be parked at any intermediate value, but atomic wait re-checks
    // on wake, and a master parked mid-count is always woken by this final
    // notify.
    if (helpers_done_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        n_ - 1) {
      helpers_done_.notify_one();
    }
  }
}

void Team::barrier() {
  const std::uint64_t gen = bar_generation_.load(std::memory_order_acquire);
  if (bar_arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
    // Last arriver: reset, then release the generation. Threads released
    // below can only re-arrive after the generation store, so they always
    // observe the reset count.
    bar_arrived_.store(0, std::memory_order_relaxed);
    bar_generation_.fetch_add(1, std::memory_order_release);
    bar_generation_.notify_all();
  } else {
    common::SpinWait spin;
    while (bar_generation_.load(std::memory_order_acquire) == gen) {
      if (!spin.spin()) bar_generation_.wait(gen, std::memory_order_acquire);
    }
  }
}

void Team::critical(const std::function<void()>& fn) {
  std::scoped_lock lk(crit_mu_);
  fn();
}

}  // namespace evmp::fj
