// Workload `edt`: the paper's section V.A scenario (Figures 7 and 8).
//
// One load thread posts Poisson events and 2 ms probe events to an
// event::EventLoop registered with register_edt. Each event handler does a
// GUI step on the EDT, then awaits a block on a 2-thread worker target;
// the block leases a team from fj::TeamPool::lease_adaptive and runs a real
// Crypt kernel on it with run_parallel. A final GUI step back on the EDT
// completes the event. The same load thread posts the probes, so the
// busy threads are the two workers and their team helpers.
//
// A run is several rounds of: set-up; an open-loop phase at about a fifth
// of the worker target's capacity, which gives event latency and probe
// delay (Figure 8's responsiveness); and a saturation phase that keeps
// three events in flight and gives the target's capacity in events/s.
#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "bench.hpp"
#include "core/runtime.hpp"
#include "event/event_loop.hpp"
#include "event/gui.hpp"
#include "forkjoin/team_pool.hpp"
#include "kernels/crypt.hpp"
#include "trace.hpp"

namespace evbench {
namespace {

using namespace evmp;

constexpr int kWorkerThreads = 2;
constexpr int kTeamHint = 2;
// 32 Crypt units (~20 us each on a 4-vCPU x86-64 VM): ~0.35 ms on a
// team of two.
constexpr std::size_t kKernelBytes = 16 * 1024;
// About a fifth of the ~3000 events/s the saturation phase measures on a
// 4-CPU host. Nested awaits amplify host noise into the tail: across runs
// the p90 spread (IQR/median) was 16-24% at half the capacity and ~38% at
// a third, against ~11% here, where the same layers still carry the time.
constexpr double kEventRate = 600.0;
constexpr std::int64_t kProbePeriodNs = 2'000'000;
constexpr std::int64_t kSpinNs = 20'000;
constexpr int kSaturationInFlight = 3;
constexpr std::int64_t kDrainNs = 10'000'000'000;
constexpr int kRounds = 8;
constexpr double kOpenShare = 0.7;  // of --seconds; saturation gets the rest
constexpr int kWarmupEvents = 40;

struct Fixture;

/// One event's worker-side results; lives on the EDT handler's stack for
/// the duration of the await.
struct EventWork {
  Fixture* f = nullptr;
  std::uint64_t id = 0;
  bool ok = false;
};

struct Fixture {
  event::EventLoop loop{"edt"};
  Runtime rt;  // after loop: destroyed (and unregistered) first
  event::Gui gui{loop, event::ConfinementPolicy::kCount};
  event::ProgressBar& progress = gui.add_progress_bar("progress");
  exec::ThreadPoolExecutor* worker = nullptr;

  // One prepared kernel per worker thread, handed out under a lock.
  std::vector<std::unique_ptr<kernels::Kernel>> kernels;
  std::mutex kernel_mu;
  std::vector<kernels::Kernel*> idle_kernels;

  // Per-phase records, written on the EDT, read by the load thread after
  // `completed` / `probes_done` (acquire) show the phase drained.
  std::vector<std::int64_t> due;
  std::vector<std::int64_t> done;
  std::vector<std::uint8_t> ok;
  std::vector<std::int64_t> probe_delay;
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> probes_done{0};
  std::uint64_t id_base = 0;

  Fixture() {
    loop.start();
    rt.register_edt("edt", loop);
    worker = &rt.create_worker("worker", kWorkerThreads);
    for (int i = 0; i < kWorkerThreads; ++i) {
      kernels.push_back(std::make_unique<kernels::CryptKernel>(kKernelBytes));
      kernels.back()->prepare();
      idle_kernels.push_back(kernels.back().get());
    }
  }
  ~Fixture() {
    loop.wait_until_idle();
    rt.clear();
    loop.stop();
  }
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  kernels::Kernel* take_kernel() {
    std::lock_guard<std::mutex> lock(kernel_mu);
    if (idle_kernels.empty()) return nullptr;
    kernels::Kernel* k = idle_kernels.back();
    idle_kernels.pop_back();
    return k;
  }
  void give_kernel(kernels::Kernel* k) {
    std::lock_guard<std::mutex> lock(kernel_mu);
    idle_kernels.push_back(k);
  }

  void begin_phase(std::size_t events, std::size_t probes) {
    due.assign(events, 0);
    done.assign(events, 0);
    ok.assign(events, 0);
    probe_delay.assign(probes, 0);
    completed.store(0, std::memory_order_relaxed);
    probes_done.store(0, std::memory_order_relaxed);
  }
};

// Worker target: lease a team, run the kernel on it, validate.
void run_block(EventWork& w) {
  Fixture& f = *w.f;
  const std::int64_t b0 = now_ns();
  kernels::Kernel* k = f.take_kernel();
  if (k == nullptr) return;  // w.ok stays false: counted as a failure
  std::int64_t l1 = 0;
  std::int64_t k1 = 0;
  int width = 0;
  std::uint64_t sum = 0;
  {
    fj::TeamPool::Lease lease =
        fj::TeamPool::instance().lease_adaptive(kTeamHint);
    l1 = now_ns();
    width = lease->num_threads();
    sum = k->run_parallel(*lease);
    k1 = now_ns();
  }
  w.ok = k->validate(sum);
  f.give_kernel(k);
  if (trace::enabled()) {
    trace::record(trace::Kind::kLease, w.id, b0, l1, width);
    trace::record(trace::Kind::kKernelRun, w.id, l1, k1);
    trace::record(trace::Kind::kBlock, w.id, b0, now_ns());
  }
}

// EDT: GUI step, await the worker block, GUI step.
void on_event(Fixture& f, std::size_t idx) {
  const std::int64_t t0 = now_ns();
  f.progress.set_value(static_cast<int>(idx % 100));
  EventWork w{&f, f.id_base + idx, false};
  const std::int64_t a0 = now_ns();
  f.rt.invoke_target_block("worker", [&w] { run_block(w); }, Async::kAwait);
  const std::int64_t a1 = now_ns();
  f.progress.set_value(100);
  const std::int64_t t1 = now_ns();
  f.done[idx] = t1;
  f.ok[idx] = w.ok ? 1 : 0;
  if (trace::enabled()) {
    trace::record(trace::Kind::kAwait, w.id, a0, a1);
    trace::record(trace::Kind::kEventHandler, w.id, t0, t1, f.due[idx]);
  }
  f.completed.fetch_add(1, std::memory_order_release);
  f.completed.notify_one();
}

void post_event(Fixture& f, std::size_t idx, std::int64_t due, Samples* lag) {
  f.due[idx] = due;
  const std::int64_t p0 = now_ns();
  f.loop.post(exec::Task([&f, idx] { on_event(f, idx); }));
  if (lag != nullptr) lag->add(static_cast<double>(p0 - due));
  if (trace::enabled()) {
    trace::record(trace::Kind::kEventPost, f.id_base + idx, p0, now_ns(), due);
  }
}

struct PhaseResult {
  Samples latency;  ///< due -> completion on the EDT (ns)
  Samples probe;    ///< probe due -> probe dispatch on the EDT (ns)
  Samples lag;      ///< post start - due, events and probes (ns)
  std::uint64_t events = 0;
  std::uint64_t bad = 0;   ///< kernel failed validation
  std::uint64_t lost = 0;  ///< events or probes not done by the deadline
  std::int64_t start = 0;
  std::int64_t end = 0;
  double throughput = 0.0;  ///< events/s (saturation phase)
};

void wait_drained(Fixture& f, std::uint64_t events, std::uint64_t probes) {
  const std::int64_t deadline = now_ns() + kDrainNs;
  while (f.completed.load(std::memory_order_acquire) < events ||
         f.probes_done.load(std::memory_order_acquire) < probes) {
    if (now_ns() > deadline) return;
    sleep_until_ns(now_ns() + 100'000, 0);
  }
}

void collect_events(Fixture& f, PhaseResult& pr, std::size_t n) {
  pr.events = n;
  const std::uint64_t finished = f.completed.load(std::memory_order_acquire);
  pr.lost += n - std::min<std::uint64_t>(finished, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (f.done[i] == 0) continue;
    if (f.ok[i] == 0) {
      ++pr.bad;
      continue;
    }
    pr.latency.add(static_cast<double>(f.done[i] - f.due[i]));
  }
}

/// Open loop: Poisson events plus 2 ms probes from this thread.
PhaseResult open_loop(Fixture& f, const std::vector<std::int64_t>& offsets) {
  PhaseResult pr;
  const std::size_t n = offsets.size();
  const std::int64_t span = n == 0 ? 0 : offsets.back();
  const std::size_t np = static_cast<std::size_t>(span / kProbePeriodNs);
  f.begin_phase(n, np);
  pr.lag.reserve(n + np);
  const std::int64_t t0 = now_ns() + 1'000'000;
  pr.start = t0;
  std::size_t i = 0;
  std::size_t k = 0;
  while (i < n || k < np) {
    const std::int64_t ev_due = i < n ? t0 + offsets[i] : INT64_MAX;
    const std::int64_t pr_due =
        k < np ? t0 + static_cast<std::int64_t>(k) * kProbePeriodNs : INT64_MAX;
    if (ev_due <= pr_due) {
      sleep_until_ns(ev_due, kSpinNs);
      post_event(f, i++, ev_due, &pr.lag);
    } else {
      sleep_until_ns(pr_due, kSpinNs);
      const std::int64_t p0 = now_ns();
      f.loop.post(exec::Task([&f, k, pr_due] {
        f.probe_delay[k] = now_ns() - pr_due;
        f.probes_done.fetch_add(1, std::memory_order_release);
      }));
      pr.lag.add(static_cast<double>(p0 - pr_due));
      ++k;
    }
  }
  wait_drained(f, n, np);
  pr.end = now_ns();
  collect_events(f, pr, n);
  const std::size_t probes =
      std::min<std::size_t>(f.probes_done.load(std::memory_order_acquire), np);
  pr.lost += np - probes;
  for (std::size_t p = 0; p < probes; ++p) {
    pr.probe.add(static_cast<double>(f.probe_delay[p]));
  }
  return pr;
}

/// Closed loop with kSaturationInFlight events outstanding for `seconds`;
/// throughput counts completions inside the window after a short warm-up.
PhaseResult saturate(Fixture& f, double seconds, std::size_t max_events) {
  PhaseResult pr;
  f.begin_phase(max_events, 0);
  const std::int64_t start = now_ns();
  const std::int64_t window0 =
      start + static_cast<std::int64_t>(seconds * 0.1e9);
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  std::size_t posted = 0;
  std::uint64_t at_window0 = UINT64_MAX;
  std::int64_t t = start;
  while (t < end && posted < max_events) {
    const std::uint64_t c = f.completed.load(std::memory_order_acquire);
    if (at_window0 == UINT64_MAX && t >= window0) at_window0 = c;
    if (posted - c < kSaturationInFlight) {
      post_event(f, posted++, t, nullptr);
    } else {
      f.completed.wait(c, std::memory_order_acquire);
    }
    t = now_ns();
  }
  const std::uint64_t at_end = f.completed.load(std::memory_order_acquire);
  if (at_window0 == UINT64_MAX) at_window0 = 0;
  pr.throughput = static_cast<double>(at_end - at_window0) /
                  (static_cast<double>(t - std::max(window0, start)) / 1e9);
  wait_drained(f, posted, 0);
  collect_events(f, pr, posted);
  return pr;
}

void account(Result& r, const PhaseResult& pr, const char* what) {
  r.attempted += pr.events;
  r.failed += pr.bad + pr.lost;
  if (pr.bad != 0) {
    r.fail_check(std::string(what) + ": " + std::to_string(pr.bad) +
                 " kernel runs failed validation");
  }
  if (pr.lost != 0) {
    r.fail_check(std::string(what) + ": " + std::to_string(pr.lost) +
                 " events or probes did not complete");
  }
}

/// Runtime + EDT + worker target + kernel prepare + warm-up, timed.
std::unique_ptr<Fixture> set_up(Result& r, double* seconds) {
  const std::int64_t t0 = now_ns();
  auto f = std::make_unique<Fixture>();
  // Closed loop that stops after kWarmupEvents (the time bound is slack).
  account(r, saturate(*f, 60.0, kWarmupEvents), "warm-up");
  *seconds = static_cast<double>(now_ns() - t0) / 1e9;
  return f;
}

void check_gui(Result& r, const Fixture& f) {
  if (f.gui.violations() != 0) {
    r.fail_check(std::to_string(f.gui.violations()) +
                 " GUI confinement violations");
  }
}

}  // namespace

Result run_edt(const Options& opt) {
  Result r;
  set_min_timer_slack();
  // Rounds of set-up, open loop and saturation, each on a fresh runtime,
  // EDT and worker pool; every figure is the best over the rounds (see
  // Rounds).
  const double open_s =
      opt.trace ? opt.seconds * 0.5 : opt.seconds * kOpenShare / kRounds;
  const double sat_s = opt.seconds * (1.0 - kOpenShare) / kRounds;

  if (!opt.trace) {
    Samples latency;  // pooled, for the notes
    Samples probe;
    Samples lag;
    std::vector<double> p50s, p90s, probe90s;
    std::vector<double> setups;
    std::vector<double> throughputs;
    double rss_mb = 0.0;
    Rounds rounds;
    for (int round = 0; round < kRounds; ++round) {
      rounds.begin();
      double setup_s = 0.0;
      std::unique_ptr<Fixture> f = set_up(r, &setup_s);
      setups.push_back(setup_s);
      PhaseResult open = open_loop(
          *f, poisson_offsets(opt.seed, static_cast<std::uint64_t>(round),
                              kEventRate, open_s));
      account(r, open, "open-loop phase");
      p50s.push_back(open.latency.quantile(0.5));
      p90s.push_back(open.latency.quantile(0.9));
      probe90s.push_back(open.probe.quantile(0.9));
      latency.append(open.latency);
      probe.append(open.probe);
      lag.append(open.lag);
      if (round == 0) rss_mb = peak_rss_mb();  // before any saturation
      f->id_base += open.events;
      PhaseResult sat = saturate(
          *f, sat_s, static_cast<std::size_t>(sat_s * 20'000.0) + 64);
      account(r, sat, "saturation phase");
      throughputs.push_back(sat.throughput);
      check_gui(r, *f);
      rounds.end();
    }
    r.note(rounds.describe());
    r.note("open loop: " + std::to_string(latency.size()) + " events at " +
           std::to_string(static_cast<int>(kEventRate)) + "/s, p99 " +
           std::to_string(latency.quantile(0.99) / 1e3) + " us; " +
           std::to_string(probe.size()) + " probes, p50 " +
           std::to_string(probe.quantile(0.5) / 1e3) + " us, p99 " +
           std::to_string(probe.quantile(0.99) / 1e3) +
           " us; load thread lag p50 " +
           std::to_string(lag.quantile(0.5) / 1e3) +
           " us, p99 " + std::to_string(lag.quantile(0.99) / 1e3) + " us");
    r.add("latency_p50_us", "us", Rounds::lowest(p50s) / 1e3);
    r.note("latency p90, best round: " +
           std::to_string(Rounds::lowest(p90s) / 1e3) + " us");
    r.add("throughput_per_s", "1/s", Rounds::highest(throughputs));
    r.note("probe p90, best round: " +
           std::to_string(Rounds::lowest(probe90s) / 1e3) + " us");
    r.add("setup_s", "s", Rounds::lowest(setups));
    r.add("rss_mb", "MiB", rss_mb);
    return r;
  }

  double setup_s = 0.0;
  std::unique_ptr<Fixture> fx = set_up(r, &setup_s);
  Fixture& f = *fx;
  const auto offsets = poisson_offsets(opt.seed, 0, kEventRate, open_s);

  // Traced run: the open-loop phase untraced, then again traced.
  const std::uint64_t allocs0 = allocations();
  PhaseResult plain = open_loop(f, offsets);
  const double allocs_per_event = ratio(
      static_cast<double>(allocations() - allocs0),
      static_cast<double>(plain.events));
  account(r, plain, "untraced phase");
  f.id_base += plain.events;

  const RuntimeStats rt0 = f.rt.stats();
  const common::ShardedQueueStats qs0 = f.worker->queue_stats();
  f.loop.reset_stats();
  trace::set_enabled(true);
  PhaseResult traced =
      open_loop(f, poisson_offsets(opt.seed, 1, kEventRate, open_s));
  trace::set_enabled(false);
  account(r, traced, "traced phase");
  const RuntimeStats rt1 = f.rt.stats();
  const common::ShardedQueueStats qs1 = f.worker->queue_stats();
  const auto delay = f.loop.dispatch_delay().snapshot();
  check_gui(r, f);
  const std::vector<trace::Span> spans = trace::collect();
  trace::write_csv(trace::output_path("edt"), spans);

  Samples post_ns, lease, width, kernel, block, join;
  std::vector<std::int64_t> await_ns(traced.events, -1);
  std::vector<std::int64_t> kernel_ns(traced.events, -1);
  double block_busy = 0.0;
  for (const trace::Span& sp : spans) {
    const std::int64_t d = sp.end - sp.start;
    const std::uint64_t idx = sp.id - f.id_base;
    const bool mine = sp.id >= f.id_base && idx < traced.events;
    switch (sp.kind) {
      case trace::Kind::kEventPost: post_ns.add(static_cast<double>(d)); break;
      case trace::Kind::kLease:
        lease.add(static_cast<double>(d));
        width.add(static_cast<double>(sp.aux));
        break;
      case trace::Kind::kKernelRun:
        kernel.add(static_cast<double>(d));
        if (mine) kernel_ns[idx] = d;
        break;
      case trace::Kind::kBlock: block_busy += static_cast<double>(d); break;
      case trace::Kind::kAwait:
        if (mine) await_ns[idx] = d;
        break;
      default: break;
    }
  }
  for (std::size_t i = 0; i < traced.events; ++i) {
    if (await_ns[i] >= 0 && kernel_ns[i] >= 0) {
      join.add(static_cast<double>(await_ns[i] - kernel_ns[i]));
    }
  }
  if (join.size() != traced.events) {
    r.fail_check("traced phase: " + std::to_string(join.size()) + " of " +
                 std::to_string(traced.events) +
                 " events have all their spans");
  }
  r.note("trace: " + std::to_string(spans.size()) + " spans, " +
         std::to_string(trace::dropped()) + " dropped");

  const double events_d = static_cast<double>(traced.events);
  const double wall_ns = static_cast<double>(traced.end - traced.start);
  const double plain_p50 = plain.latency.quantile(0.5);
  r.add("core.join_us", "us", join.quantile(0.5) / 1e3);
  r.add("core.await_pumped_per_event", "count",
        ratio(static_cast<double>(rt1.await_pumped - rt0.await_pumped),
              events_d));
  r.add("core.allocs_per_op", "count", allocs_per_event);
  r.add("exec.busy_pct", "%", pct(block_busy, kWorkerThreads * wall_ns));
  r.add("exec.queue_collisions_per_push", "count",
        ratio(static_cast<double>(qs1.collisions - qs0.collisions),
              static_cast<double>(qs1.pushes - qs0.pushes)));
  r.add("exec.queue_max_depth", "count", static_cast<double>(qs1.max_depth));
  r.add("event.post_ns", "ns", post_ns.quantile(0.5));
  r.add("event.dispatch_delay_p50_us", "us",
        static_cast<double>(delay.percentile(0.5)) / 1e3);
  r.add("event.dispatch_delay_p90_us", "us",
        static_cast<double>(delay.percentile(0.9)) / 1e3);
  r.add("event.busy_pct", "%",
        pct(static_cast<double>(f.loop.busy_time().count()), wall_ns));
  r.add("event.max_nesting", "count",
        static_cast<double>(f.loop.max_nesting()));
  r.add("fj.lease_us", "us", lease.quantile(0.5) / 1e3);
  r.add("fj.granted_width_mean", "count", width.mean());
  r.add("fj.teams_created", "count",
        static_cast<double>(fj::TeamPool::instance().teams_created()));
  r.add("kernel.run_ms", "ms", kernel.quantile(0.5) / 1e6);
  r.add("gen.lag_p50_us", "us", traced.lag.quantile(0.5) / 1e3);
  r.add("gen.lag_p99_us", "us", traced.lag.quantile(0.99) / 1e3);
  r.add("trace.overhead_pct", "%",
        pct(traced.latency.quantile(0.5) - plain_p50, plain_p50));
  r.add("trace.spans", "count", static_cast<double>(spans.size()));
  return r;
}

}  // namespace evbench
