#include "executor/work_stealing_executor.hpp"

#include <string>
#include <thread>

#include "common/env.hpp"
#include "common/logging.hpp"
#include "common/spin_wait.hpp"
#include "common/tracing.hpp"

namespace evmp::exec {

namespace {
// Which worker of which stealing pool the current thread is (set once in
// worker_main; -1 on foreign threads).
thread_local const WorkStealingExecutor* t_pool = nullptr;
thread_local int t_worker_index = -1;
}  // namespace

WorkStealingExecutor::WorkStealingExecutor(std::string pool_name,
                                           std::size_t num_threads)
    : WorkStealingExecutor(
          std::move(pool_name), num_threads, common::Topology::instance(),
          common::env_bool("EVMP_PIN").value_or(false)) {}

WorkStealingExecutor::WorkStealingExecutor(std::string pool_name,
                                           std::size_t num_threads,
                                           const common::Topology& topo,
                                           bool pin)
    : Executor(std::move(pool_name)), pin_workers_(pin) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  const int n = static_cast<int>(num_threads);
  for (int i = 0; i < n; ++i) {
    auto worker = std::make_unique<Worker>();
    // Near-before-far probe order, randomised within each distance tier
    // (per-worker seed: deterministic across runs, distinct across
    // workers so equal-tier thieves fan out).
    auto order = topo.victim_order(i, n, 0x5eed);
    worker->victims = std::move(order.order);
    worker->near_victims = order.near_count;
    worker->cpu = topo.cpu(topo.cpu_for_worker(i)).id;
    workers_.push_back(std::move(worker));
  }
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { worker_main(static_cast<int>(i)); });
  }
}

WorkStealingExecutor::~WorkStealingExecutor() { shutdown(); }

int WorkStealingExecutor::current_worker_index() const noexcept {
  return t_pool == this ? t_worker_index : -1;
}

void WorkStealingExecutor::post(Task task) {
  if (!submit(std::move(task))) {
    EVMP_LOG_WARN << "task posted to shut-down stealing pool '" << name()
                  << "' was dropped";
  }
}

bool WorkStealingExecutor::try_post(Task task) {
  return submit(std::move(task));
}

bool WorkStealingExecutor::submit(Task task) {
  const int self = current_worker_index();
  if (self >= 0) {
    // Own deque, LIFO end: no lock, no RMW — slot store + release fence.
    // No gate either: this worker pops its deque before it exits.
    if (stopping_.load(std::memory_order_acquire)) return false;
    workers_[static_cast<std::size_t>(self)]->deque.push_bottom(
        make_task_node(std::move(task)));
    idle_.notify_one();
    return true;
  }
  // Foreign threads may not touch a Chase–Lev bottom; inject instead,
  // holding a gate share until the node is linked and announced.
  if (!gate_.enter()) return false;
  injected_.fetch_add(1, std::memory_order_relaxed);
  injection_.push(make_task_node(std::move(task)));
  // After the push returned, so the node is linked: a worker that found
  // the list cut at this node is re-run by this notify (see worker_main).
  idle_.notify_one();
  gate_.leave();
  return true;
}

void WorkStealingExecutor::post_batch(std::span<Task> tasks) {
  if (tasks.empty()) return;
  const int self = current_worker_index();
  const bool admitted =
      self >= 0 ? !stopping_.load(std::memory_order_acquire) : gate_.enter();
  if (!admitted) {
    EVMP_LOG_WARN << "batch of " << tasks.size()
                  << " tasks posted to shut-down stealing pool '" << name()
                  << "' was dropped";
    return;
  }
  if (self >= 0) {
    // Own deque: append in order behind existing work, like N posts.
    auto& deque = workers_[static_cast<std::size_t>(self)]->deque;
    for (Task& task : tasks) {
      deque.push_bottom(make_task_node(std::move(task)));
    }
  } else {
    // Foreign burst: link the nodes privately, then splice the whole run
    // in with one exchange — contiguous and in order.
    const TaskChain chain = make_task_chain(tasks);
    injected_.fetch_add(tasks.size(), std::memory_order_relaxed);
    injection_.push_chain(chain.first, chain.last);
  }
  batch_posts_.fetch_add(1, std::memory_order_relaxed);
  idle_.notify_all();  // a batch may satisfy many parked workers
  if (self < 0) gate_.leave();
}

bool WorkStealingExecutor::take_node(int self, TaskNode*& out) {
  // 1. Own deque, newest first (locality: the task most likely to have its
  //    captures still in this core's cache).
  if (self >= 0) {
    if (workers_[static_cast<std::size_t>(self)]->deque.pop_bottom(out)) {
      local_pops_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  // 2. Foreign submissions from the injection queue. The lock-free hint
  //    keeps idle spinners off the try-lock's line while nothing is
  //    queued; a lost try-lock means another thread is consuming — steal
  //    rather than wait for it.
  if (!injection_.empty() && take_injected(out) == Injection::kTaken) {
    return true;
  }
  // 3. Steal oldest-first, near victims before far ones. A lost CAS
  //    (kAbort) means the victim demonstrably has traffic — retry it
  //    rather than walking away from a deque that had work an instant ago.
  using Steal = common::ChaseLevDeque<TaskNode*>::Steal;
  if (self >= 0) {
    // Worker thief: probe this worker's topology-ordered victim list (SMT
    // sibling, LLC peers, node peers, remote — shuffled within tiers at
    // construction). Always starting at the nearest victim is the point:
    // a hit there keeps the task's captures inside the shared cache.
    const Worker& me = *workers_[static_cast<std::size_t>(self)];
    for (std::size_t k = 0; k < me.victims.size(); ++k) {
      auto& victim =
          workers_[static_cast<std::size_t>(me.victims[k])]->deque;
      for (;;) {
        const Steal result = victim.steal_top(out);
        if (result == Steal::kSuccess) {
          steals_.fetch_add(1, std::memory_order_relaxed);
          if (k < me.near_victims) {
            near_steals_.fetch_add(1, std::memory_order_relaxed);
          }
          return true;
        }
        if (result == Steal::kEmpty) break;
      }
    }
    return false;
  }
  // Foreign thief (try_run_one from outside, shutdown drain): no locality
  // to exploit — rotate uniformly so repeated helpers spread out.
  const std::size_t n = workers_.size();
  const std::size_t start =
      next_victim_.fetch_add(1, std::memory_order_relaxed) % n;
  for (std::size_t k = 0; k < n; ++k) {
    auto& victim = workers_[(start + k) % n]->deque;
    for (;;) {
      const Steal result = victim.steal_top(out);
      if (result == Steal::kSuccess) {
        steals_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      if (result == Steal::kEmpty) break;
    }
  }
  return false;
}

WorkStealingExecutor::Injection WorkStealingExecutor::take_injected(
    TaskNode*& out) {
  if (injection_busy_.load(std::memory_order_relaxed) ||
      injection_busy_.exchange(true, std::memory_order_acquire)) {
    injection_collisions_.fetch_add(1, std::memory_order_relaxed);
    return Injection::kBusy;
  }
  // Acquire/release on the try-lock hands the queue's head from one
  // consumer to the next.
  out = injection_.pop();
  injection_busy_.store(false, std::memory_order_release);
  if (out == nullptr) return Injection::kEmpty;
  injection_pops_.fetch_add(1, std::memory_order_relaxed);
  return Injection::kTaken;
}

void WorkStealingExecutor::run_node(TaskNode* node) {
  Task task = take_task(node);  // recycle first: spawned children reuse it
  run_task(task);
}

bool WorkStealingExecutor::try_run_one() {
  TaskNode* node = nullptr;
  if (!take_node(current_worker_index(), node)) return false;
  run_node(node);
  return true;
}

std::size_t WorkStealingExecutor::concurrency() const noexcept {
  return threads_.size();
}

std::size_t WorkStealingExecutor::pending() const {
  const std::uint64_t taken = injection_pops_.load(std::memory_order_relaxed);
  const std::uint64_t injected = injected_.load(std::memory_order_relaxed);
  std::size_t total =
      injected > taken ? static_cast<std::size_t>(injected - taken) : 0;
  for (const auto& w : workers_) {
    total += w->deque.size();
  }
  return total;
}

PoolQueueStats WorkStealingExecutor::queue_stats() const {
  // Accepted = taken (local pops, steals, injection pops) + still queued
  // (deques, injected-but-not-taken): no extra RMW on the post path.
  std::uint64_t pushes = local_pops_.load(std::memory_order_relaxed) +
                         steals_.load(std::memory_order_relaxed) +
                         injected_.load(std::memory_order_relaxed);
  for (const auto& w : workers_) {
    pushes += w->deque.size();
  }
  return {pushes, injection_collisions_.load(std::memory_order_relaxed), 0};
}

void WorkStealingExecutor::shutdown() {
  // Refuse foreign posts and wait out the admitted ones: once close()
  // returns every accepted node is linked, and the workers drain it
  // before they exit.
  if (!gate_.close()) return;
  stopping_.store(true, std::memory_order_release);
  idle_.notify_all();
  threads_.clear();  // jthread joins; workers drain before exiting

  // A foreign try_run_one() holding the injection try-lock can make the
  // last worker give up while nodes remain queued; drain them here. A
  // non-empty queue that yields nothing is such a holder: wait it out.
  TaskNode* node = nullptr;
  for (;;) {
    if (take_node(-1, node)) {
      run_node(node);
    } else if (injection_.empty()) {
      break;
    } else {
      std::this_thread::yield();
    }
  }

  auto& tracer = common::Tracer::instance();
  const std::string prefix(name());
  tracer.set_counter(prefix + ".local_pops",
                     local_pops_.load(std::memory_order_relaxed));
  tracer.set_counter(prefix + ".steals",
                     steals_.load(std::memory_order_relaxed));
  tracer.set_counter(prefix + ".near_steals",
                     near_steals_.load(std::memory_order_relaxed));
  tracer.set_counter(prefix + ".far_steals", far_steals());
  if (pin_workers_) {
    tracer.set_counter(prefix + ".pinned_workers",
                       pinned_workers_.load(std::memory_order_relaxed));
  }
  tracer.set_counter(prefix + ".injection_pops",
                     injection_pops_.load(std::memory_order_relaxed));
  tracer.set_counter(prefix + ".injection_collisions",
                     injection_collisions_.load(std::memory_order_relaxed));
  tracer.set_counter(prefix + ".batch_posts",
                     batch_posts_.load(std::memory_order_relaxed));
}

std::vector<int> WorkStealingExecutor::victim_order_for(int worker) const {
  return workers_.at(static_cast<std::size_t>(worker))->victims;
}

std::size_t WorkStealingExecutor::near_victims_of(int worker) const {
  return workers_.at(static_cast<std::size_t>(worker))->near_victims;
}

void WorkStealingExecutor::worker_main(int index) {
  ThreadBinding bind(this);
  t_pool = this;
  t_worker_index = index;
  if (pin_workers_) {
    // Advisory: a refused sched_setaffinity (cpuset limits, non-Linux)
    // leaves the worker unpinned — correctness never depends on placement.
    const int cpu = workers_[static_cast<std::size_t>(index)]->cpu;
    if (common::Topology::pin_current_thread(cpu)) {
      pinned_workers_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  TaskNode* node = nullptr;
  for (;;) {
    if (take_node(index, node)) {
      run_node(node);
      continue;
    }
    if (stopping_.load(std::memory_order_acquire)) break;  // scan above drained

    // Out of work: stay awake through the spin window (common::SpinWait;
    // a few yields only on one usable CPU), re-probing all sources each
    // step — work that lands inside the window needs no wake.
    common::SpinWait spin;
    bool found = false;
    while (spin.spin()) {
      if (take_node(index, node)) {
        found = true;
        break;
      }
      if (stopping_.load(std::memory_order_acquire)) break;
    }
    if (found) {
      run_node(node);
      continue;
    }

    // Park. prepare→re-check→commit against the EventCount: a post that
    // lands after the re-check bumps the epoch (its notify RMW is ordered
    // after our prepare RMW on the same word), so commit_wait returns
    // immediately — no lost wakeup. Shutdown's notify_all is caught the
    // same way.
    //
    // The injection queue is re-checked by popping under the try-lock, not
    // through the empty() hint: a post whose notify preceded our prepare
    // is then visible (our prepare acquired its notify, which follows its
    // link), and one whose notify follows our prepare bumps the epoch. A
    // cut list (a push between exchange and link) pops empty; that push's
    // notify comes after its link, so it is the second case. A busy
    // try-lock means another consumer — possibly a foreign try_run_one()
    // helper — may leave nodes behind when it drops the lock, so never
    // park on it: go round again (the spin window paces the retry).
    const auto key = idle_.prepare_wait();
    if (stopping_.load(std::memory_order_acquire)) {
      idle_.cancel_wait();
      continue;  // loop top drains, then exits via the stopping check
    }
    const Injection injected = take_injected(node);
    if (injected == Injection::kTaken ||
        (injected == Injection::kEmpty && take_node(index, node))) {
      idle_.cancel_wait();
      run_node(node);
      continue;
    }
    if (injected == Injection::kBusy) {
      idle_.cancel_wait();
      continue;
    }
    idle_.commit_wait(key);
  }
  t_pool = nullptr;
  t_worker_index = -1;
}

}  // namespace evmp::exec
