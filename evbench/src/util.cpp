// Sample statistics, round bookkeeping, timing helpers and schedule
// generation shared by the workloads.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <random>

#include "bench.hpp"

namespace evbench {

double Samples::quantile(double q) {
  if (v_.empty()) return 0.0;
  if (sorted_ != v_.size()) {
    std::sort(v_.begin(), v_.end());
    sorted_ = v_.size();
  }
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(v_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v_[lo] + (v_[hi] - v_[lo]) * frac;
}

double Samples::sum() const {
  return std::accumulate(v_.begin(), v_.end(), 0.0);
}

double Samples::mean() const {
  return v_.empty() ? 0.0 : sum() / static_cast<double>(v_.size());
}

double median_of(std::vector<double> v) {
  Samples s;
  for (double x : v) s.add(x);
  return s.quantile(0.5);
}

namespace {

/// Whole-machine steal and total CPU time from /proc/stat, in ticks.
void read_cpu_ticks(std::uint64_t* steal, std::uint64_t* total) {
  *steal = 0;
  *total = 0;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return;
  // cpu user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    *steal = v[7];
    for (unsigned long long x : v) *total += x;
  }
  std::fclose(f);
}

}  // namespace

void Rounds::begin() { read_cpu_ticks(&steal0_, &total0_); }

void Rounds::end() {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  read_cpu_ticks(&steal, &total);
  steal_.push_back(ratio(static_cast<double>(steal - steal0_),
                         static_cast<double>(total - total0_)));
}

double Rounds::lowest(const std::vector<double>& per_round) {
  return per_round.empty()
             ? 0.0
             : *std::min_element(per_round.begin(), per_round.end());
}

double Rounds::highest(const std::vector<double>& per_round) {
  return per_round.empty()
             ? 0.0
             : *std::max_element(per_round.begin(), per_round.end());
}

std::string Rounds::describe() const {
  std::string s = "host steal per round:";
  char buf[32];
  for (double share : steal_) {
    std::snprintf(buf, sizeof(buf), " %.1f%%", 100.0 * share);
    s += buf;
  }
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void set_min_timer_slack() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

std::int64_t sleep_until_ns(std::int64_t due_ns, std::int64_t spin_ns) {
  std::int64_t t = now_ns();
  if (due_ns - t > spin_ns) {
    // steady_clock is CLOCK_MONOTONIC on Linux, so its epoch matches.
    const std::int64_t wake = due_ns - spin_ns;
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wake / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(wake % 1'000'000'000);
    while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
           EINTR) {
    }
    t = now_ns();
  }
  while (t < due_ns) t = now_ns();
  return t;
}

std::vector<std::int64_t> poisson_offsets(std::uint64_t seed,
                                          std::uint64_t stream, double rate,
                                          double seconds) {
  std::mt19937_64 rng(mix64(seed * 0x100000001b3ull + stream));
  std::vector<std::int64_t> out;
  out.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    // Inverse-CDF exponential gap; spelled out so the schedule does not
    // depend on the standard library's distribution implementation.
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    t += -std::log1p(-u) / rate;
    if (t >= seconds) break;
    out.push_back(static_cast<std::int64_t>(t * 1e9));
  }
  return out;
}

}  // namespace evbench
