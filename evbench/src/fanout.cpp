// Workload `fanout`: fine-grained directives in a closed loop (the paper's
// section I "shorter computational spurts").
//
// One submitter splits a tiny Crypt run into 64 name_as blocks of about
// 2 us each on a 3-thread create_stealing_worker target, joins them with
// wait(tag), validates every part, and starts the next burst at once. The
// block work is small enough that the submitter's per-block dispatch cost
// bounds throughput, isolating core plan/finish dispatch, completion
// pooling, tag groups and the Chase-Lev executor's steal, park and wake.
// Submitter + 3 workers = 4 busy threads.
//
// A Crypt work unit is 64 IDEA blocks (~20 us on a 4-vCPU x86-64 VM),
// too coarse for 2 us blocks, so the burst's 4 KiB of data is 64 one-unit
// kernels of 8 IDEA blocks each; block i runs kernel i.
//
// Every 2 ms the submitter also dispatches a nowait probe block, whose
// delay from its due time to its start measures how long an unrelated
// directive waits behind the bursts.
#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "bench.hpp"
#include "core/runtime.hpp"
#include "kernels/crypt.hpp"
#include "trace.hpp"

namespace evbench {
namespace {

using namespace evmp;

constexpr int kWorkerThreads = 3;
constexpr int kBlocks = 64;
constexpr std::size_t kPartBytes = 64;  // 8 IDEA blocks: ~2.5 us per part
constexpr std::int64_t kProbePeriodNs = 2'000'000;
constexpr int kRounds = 8;
constexpr double kTracedSeconds = 1.5;
constexpr int kWarmupBursts = 200;
constexpr const char* kTarget = "pool";
constexpr const char* kTag = "fanout";

// One cache line per part: the workers write them concurrently.
struct alignas(64) Part {
  std::uint64_t sum = 0;
};

struct Fixture {
  Runtime rt;
  exec::WorkStealingExecutor* pool = nullptr;
  std::vector<std::unique_ptr<kernels::Kernel>> kernels;
  Part parts[kBlocks];
  // Probe results, written by workers; read after probes_done (acquire).
  std::vector<std::int64_t> probe_delay;
  std::atomic<std::uint64_t> probes_done{0};

  Fixture() {
    pool = &rt.create_stealing_worker(kTarget, kWorkerThreads);
    for (int i = 0; i < kBlocks; ++i) {
      kernels.push_back(std::make_unique<kernels::CryptKernel>(kPartBytes));
      kernels.back()->prepare();
    }
  }
};

struct PhaseResult {
  Samples latency;  ///< first dispatch -> wait_tag return (ns)
  Samples probe;    ///< probe due -> probe start (ns)
  Samples lag;      ///< probe dispatch - probe due (ns)
  std::uint64_t bursts = 0;
  std::uint64_t bad = 0;   ///< bursts whose parts failed validation
  std::uint64_t lost = 0;  ///< probes that never ran
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Run bursts back to back for `seconds` (or `max_bursts`), dispatching a
/// probe every 2 ms when `probes` is set.
PhaseResult run_bursts(Fixture& f, double seconds, std::uint64_t max_bursts,
                       bool probes, std::uint64_t id_base) {
  PhaseResult pr;
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  const std::size_t np =
      probes ? static_cast<std::size_t>((end - start) / kProbePeriodNs) : 0;
  f.probe_delay.assign(np, 0);
  f.probes_done.store(0, std::memory_order_relaxed);
  pr.latency.reserve(static_cast<std::size_t>(seconds * 50'000.0));
  pr.lag.reserve(np);
  std::size_t k = 0;
  std::int64_t probe_due = start;
  const bool traced = trace::enabled();
  std::int64_t t = start;
  while (t < end && pr.bursts < max_bursts) {
    const std::uint64_t burst = id_base + pr.bursts;
    const std::int64_t b0 = now_ns();
    for (int i = 0; i < kBlocks; ++i) {
      const std::uint64_t id = burst * kBlocks + static_cast<std::uint64_t>(i);
      const std::int64_t d0 = traced ? now_ns() : 0;
      f.rt.invoke_target_block(
          kTarget,
          [&f, i, id] {
            const std::int64_t s0 = trace::enabled() ? now_ns() : 0;
            f.parts[i].sum =
                f.kernels[static_cast<std::size_t>(i)]->compute_range(0, 1);
            if (trace::enabled()) {
              trace::record(trace::Kind::kBlock, id, s0, now_ns());
            }
          },
          Async::kNameAs, kTag);
      if (traced) trace::record(trace::Kind::kDispatch, id, d0, now_ns());
      if (k < np && now_ns() >= probe_due) {
        const std::int64_t due = probe_due;
        pr.lag.add(static_cast<double>(now_ns() - due));
        f.rt.invoke_target_block(
            kTarget,
            [&f, k, due] {
              f.probe_delay[k] = now_ns() - due;
              f.probes_done.fetch_add(1, std::memory_order_release);
            },
            Async::kNowait);
        ++k;
        probe_due += kProbePeriodNs;
      }
    }
    const std::int64_t j0 = now_ns();
    f.rt.wait_tag(kTag);
    const std::int64_t b1 = now_ns();
    bool ok = true;
    for (int i = 0; i < kBlocks; ++i) {
      ok = ok &&
           f.kernels[static_cast<std::size_t>(i)]->validate(f.parts[i].sum);
    }
    if (!ok) ++pr.bad;
    pr.latency.add(static_cast<double>(b1 - b0));
    if (traced) {
      trace::record(trace::Kind::kJoin, burst, j0, b1);
      trace::record(trace::Kind::kBurst, burst, b0, b1);
    }
    ++pr.bursts;
    t = b1;
  }
  pr.start = start;
  pr.end = t;
  const std::int64_t deadline = now_ns() + 5'000'000'000;
  while (f.probes_done.load(std::memory_order_acquire) < k &&
         now_ns() < deadline) {
    sleep_until_ns(now_ns() + 100'000, 0);
  }
  const std::size_t ran = f.probes_done.load(std::memory_order_acquire);
  pr.lost = k - std::min<std::size_t>(ran, k);
  for (std::size_t p = 0; p < std::min<std::size_t>(ran, k); ++p) {
    pr.probe.add(static_cast<double>(f.probe_delay[p]));
  }
  return pr;
}

void account(Result& r, const PhaseResult& pr, const char* what) {
  r.attempted += pr.bursts * kBlocks;
  r.failed += pr.bad * kBlocks + pr.lost;
  if (pr.bad != 0) {
    r.fail_check(std::string(what) + ": " + std::to_string(pr.bad) +
                 " bursts failed validation");
  }
  if (pr.lost != 0) {
    r.fail_check(std::string(what) + ": " + std::to_string(pr.lost) +
                 " probes never ran");
  }
}

/// Runtime + stealing target + kernel prepare + warm-up, timed.
std::unique_ptr<Fixture> set_up(Result& r, double* seconds) {
  const std::int64_t t0 = now_ns();
  auto f = std::make_unique<Fixture>();
  account(r, run_bursts(*f, 60.0, kWarmupBursts, false, 0), "warm-up");
  *seconds = static_cast<double>(now_ns() - t0) / 1e9;
  return f;
}

}  // namespace

Result run_fanout(const Options& opt) {
  Result r;
  set_min_timer_slack();
  if (!opt.trace) {
    // Rounds on fresh runtimes; every figure is the best over the rounds
    // (see Rounds).
    Samples latency;  // pooled, for the notes
    Samples probe;
    std::vector<double> p50s, p90s, probe90s, rates;
    std::vector<double> setups;
    Rounds rounds;
    for (int round = 0; round < kRounds; ++round) {
      rounds.begin();
      double setup_s = 0.0;
      std::unique_ptr<Fixture> f = set_up(r, &setup_s);
      setups.push_back(setup_s);
      PhaseResult run =
          run_bursts(*f, opt.seconds / kRounds, UINT64_MAX, true, 0);
      account(r, run, "closed loop");
      p50s.push_back(run.latency.quantile(0.5));
      p90s.push_back(run.latency.quantile(0.9));
      probe90s.push_back(run.probe.quantile(0.9));
      rates.push_back(static_cast<double>(run.bursts * kBlocks) /
                      (static_cast<double>(run.end - run.start) / 1e9));
      latency.append(run.latency);
      probe.append(run.probe);
      rounds.end();
    }
    r.note(rounds.describe());
    r.note("closed loop: " + std::to_string(latency.size()) + " bursts of " +
           std::to_string(kBlocks) + " blocks, burst p99 " +
           std::to_string(latency.quantile(0.99) / 1e3) + " us; " +
           std::to_string(probe.size()) + " probes, p50 " +
           std::to_string(probe.quantile(0.5) / 1e3) + " us, p99 " +
           std::to_string(probe.quantile(0.99) / 1e3) + " us");
    r.add("latency_p50_us", "us", Rounds::lowest(p50s) / 1e3);
    r.note("burst latency p90, best round: " +
           std::to_string(Rounds::lowest(p90s) / 1e3) + " us");
    r.add("throughput_per_s", "1/s", Rounds::highest(rates));
    r.note("probe p90, best round: " +
           std::to_string(Rounds::lowest(probe90s) / 1e3) + " us");
    r.add("setup_s", "s", Rounds::lowest(setups));
    r.add("rss_mb", "MiB", peak_rss_mb());
    return r;
  }

  double setup_s = 0.0;
  std::unique_ptr<Fixture> fx = set_up(r, &setup_s);
  Fixture& f = *fx;

  // Traced run: untraced, then traced for kTracedSeconds; a burst records
  // 129 spans, so a longer traced phase would hold hundreds of MiB.
  const double traced_s = std::min(kTracedSeconds, opt.seconds * 0.5);
  const std::uint64_t allocs0 = allocations();
  PhaseResult plain =
      run_bursts(f, opt.seconds - traced_s, UINT64_MAX, true, 0);
  const double allocs_per_block =
      ratio(static_cast<double>(allocations() - allocs0),
            static_cast<double>(plain.bursts * kBlocks));
  account(r, plain, "untraced phase");

  const std::uint64_t steals0 = f.pool->steals();
  const std::uint64_t local0 = f.pool->local_pops();
  const std::uint64_t inject0 = f.pool->injection_pops();
  trace::set_enabled(true);
  PhaseResult traced =
      run_bursts(f, traced_s, UINT64_MAX, true, plain.bursts);
  trace::set_enabled(false);
  account(r, traced, "traced phase");
  const double steals = static_cast<double>(f.pool->steals() - steals0);
  const double local = static_cast<double>(f.pool->local_pops() - local0);
  const double inject = static_cast<double>(f.pool->injection_pops() - inject0);
  const std::vector<trace::Span> spans = trace::collect();
  trace::write_csv(trace::output_path("fanout"), spans);

  // Queue wait: a block's start minus the return of the dispatch that
  // posted it (negative when a worker started the block before the
  // dispatch call returned).
  const std::uint64_t first = plain.bursts * kBlocks;
  const std::size_t blocks_n = traced.bursts * kBlocks;
  std::vector<std::int64_t> returned(blocks_n, 0);
  std::vector<std::int64_t> started(blocks_n, 0);
  Samples dispatch, join, queue_wait;
  double busy = 0.0;
  for (const trace::Span& sp : spans) {
    const bool mine = sp.id >= first && sp.id - first < blocks_n;
    switch (sp.kind) {
      case trace::Kind::kDispatch:
        dispatch.add(static_cast<double>(sp.end - sp.start));
        if (mine) returned[sp.id - first] = sp.end;
        break;
      case trace::Kind::kBlock:
        busy += static_cast<double>(sp.end - sp.start);
        if (mine) started[sp.id - first] = sp.start;
        break;
      case trace::Kind::kJoin:
        join.add(static_cast<double>(sp.end - sp.start));
        break;
      default: break;
    }
  }
  for (std::size_t i = 0; i < blocks_n; ++i) {
    if (returned[i] != 0 && started[i] != 0) {
      queue_wait.add(static_cast<double>(started[i] - returned[i]));
    }
  }
  if (queue_wait.size() != blocks_n) {
    r.fail_check("traced phase: " + std::to_string(queue_wait.size()) + " of " +
                 std::to_string(blocks_n) + " blocks have both their spans");
  }
  r.note("trace: " + std::to_string(spans.size()) + " spans, " +
         std::to_string(trace::dropped()) + " dropped");

  const double blocks = static_cast<double>(traced.bursts * kBlocks);
  const double wall_ns = static_cast<double>(traced.end - traced.start);
  const double plain_p50 = plain.latency.quantile(0.5);
  r.add("core.dispatch_us", "us", dispatch.quantile(0.5) / 1e3);
  r.add("core.join_us", "us", join.quantile(0.5) / 1e3);
  r.add("core.allocs_per_op", "count", allocs_per_block);
  r.add("exec.queue_wait_us", "us", queue_wait.quantile(0.5) / 1e3);
  r.add("exec.busy_pct", "%", pct(busy, kWorkerThreads * wall_ns));
  r.add("exec.steals_per_block", "count", ratio(steals, blocks));
  r.add("exec.local_pop_ratio", "count", ratio(local, local + inject + steals));
  r.add("gen.lag_p50_us", "us", traced.lag.quantile(0.5) / 1e3);
  r.add("gen.lag_p99_us", "us", traced.lag.quantile(0.99) / 1e3);
  r.add("trace.overhead_pct", "%",
        pct(traced.latency.quantile(0.5) - plain_p50, plain_p50));
  r.add("trace.spans", "count", static_cast<double>(spans.size()));
  return r;
}

}  // namespace evbench
