// SW1 — where does a woken thread run, and when?
//
// The measurement behind the runtime's one spin window (DESIGN.md §6.1):
// a thread parked on a futex is woken by another thread, and we record
// the CPU it resumes on and how long after the wake it starts running.
// Three cases, `--rounds` wakes each:
//
//  * keep-running: the waker keeps its CPU busy for `--hold-us` after the
//    wake (a producer that goes on producing);
//  * waker-blocks: the waker parks right after the wake (a producer that
//    hands off and goes idle);
//  * pinned: wakee and waker pinned to different CPUs, waker keeps
//    running — placement cannot follow the waker, so the start latency
//    is the cost of waking the wakee's own (possibly halted) CPU.
//
// Every round parks the wakee for `--park-us` first so that it is asleep
// in the kernel, not spinning. Output: per case, the share of wakes that
// resumed on the waker's CPU and the wake-to-run latency p50/p90/max.
//
//   bench_wake_placement [--rounds=300] [--park-us=1000] [--hold-us=5000]

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/topology.hpp"

namespace {

using Clock = std::chrono::steady_clock;

enum class Case { kKeepRunning, kWakerBlocks, kPinned };

struct Result {
  int same_cpu = 0;
  std::vector<double> latency_us;
};

Result run_case(Case c, int rounds, std::chrono::microseconds park,
                std::chrono::microseconds hold) {
  Result result;
  std::atomic<std::uint32_t> gate{0};  // round number the wakee may run
  std::atomic<std::int64_t> started_ns{0};
  std::atomic<int> started_cpu{-1};
  std::atomic<bool> done{false};

  cpu_set_t waker_mask;  // restored after the pinned case
  CPU_ZERO(&waker_mask);
  sched_getaffinity(0, sizeof(waker_mask), &waker_mask);
  std::thread wakee([&] {
    if (c == Case::kPinned) evmp::common::Topology::pin_current_thread(1);
    for (std::uint32_t round = 1;; ++round) {
      gate.wait(round - 1, std::memory_order_acquire);
      if (done.load(std::memory_order_acquire)) return;
      started_ns.store(Clock::now().time_since_epoch().count(),
                       std::memory_order_relaxed);
      started_cpu.store(sched_getcpu(), std::memory_order_release);
    }
  });
  if (c == Case::kPinned) evmp::common::Topology::pin_current_thread(0);

  for (int round = 1; round <= rounds; ++round) {
    started_cpu.store(-1, std::memory_order_relaxed);
    std::this_thread::sleep_for(park);  // the wakee is parked by now
    const int waker_cpu = sched_getcpu();
    const auto woke = Clock::now();
    gate.store(static_cast<std::uint32_t>(round), std::memory_order_release);
    gate.notify_one();
    if (c == Case::kWakerBlocks) {
      while (started_cpu.load(std::memory_order_acquire) < 0) {
        std::this_thread::sleep_for(std::chrono::microseconds{50});
      }
    } else {
      const auto until = woke + hold;
      while (started_cpu.load(std::memory_order_acquire) < 0 ||
             Clock::now() < until) {
      }
    }
    const int cpu = started_cpu.load(std::memory_order_acquire);
    const auto start = Clock::time_point(
        Clock::duration(started_ns.load(std::memory_order_relaxed)));
    if (cpu == waker_cpu) ++result.same_cpu;
    result.latency_us.push_back(
        std::chrono::duration<double, std::micro>(start - woke).count());
  }
  done.store(true, std::memory_order_release);
  gate.store(static_cast<std::uint32_t>(rounds + 1),
             std::memory_order_release);
  gate.notify_one();
  wakee.join();
  sched_setaffinity(0, sizeof(waker_mask), &waker_mask);
  return result;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto i =
      static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  return v[i];
}

}  // namespace

int main(int argc, char** argv) {
  const evmp::common::CliArgs cli(argc, argv);
  const int rounds = static_cast<int>(cli.get_long("rounds", 300));
  const std::chrono::microseconds park{cli.get_long("park-us", 1000)};
  const std::chrono::microseconds hold{cli.get_long("hold-us", 5000)};

  std::printf("SW1: futex wake placement and wake-to-run latency\n");
  std::printf("# usable cpus: %d; %d wakes per case; wakee parked %lld us; "
              "waker holds its cpu %lld us\n",
              evmp::common::Topology::usable_cpus(), rounds,
              static_cast<long long>(park.count()),
              static_cast<long long>(hold.count()));
  std::printf("  %-14s %16s %10s %10s %10s\n", "case", "on waker's cpu",
              "p50(us)", "p90(us)", "max(us)");
  const struct {
    Case c;
    const char* name;
  } cases[] = {{Case::kKeepRunning, "keep-running"},
               {Case::kWakerBlocks, "waker-blocks"},
               {Case::kPinned, "pinned"}};
  for (const auto& entry : cases) {
    if (entry.c == Case::kPinned &&
        evmp::common::Topology::usable_cpus() < 2) {
      std::printf("  %-14s (needs 2 usable cpus)\n", entry.name);
      continue;
    }
    const Result r = run_case(entry.c, rounds, park, hold);
    const std::string share =
        std::to_string(r.same_cpu) + "/" + std::to_string(rounds);
    std::printf("  %-14s %16s %10.1f %10.1f %10.1f\n", entry.name,
                share.c_str(), quantile(r.latency_us, 0.5),
                quantile(r.latency_us, 0.9), quantile(r.latency_us, 1.0));
  }
  return 0;
}
