#pragma once
// Shared plumbing of the EventMP benchmark program: options, exact sample
// quantiles, the result record every workload returns, and the timing
// helpers the load generators use.
//
// Every timestamp is std::chrono::steady_clock in nanoseconds (the same
// clock common::now() reads), so stamps taken on the generator, the
// reactor, the EDT and worker threads subtract directly.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace evbench {

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Exact quantiles by sorting (linear interpolation between ranks).
class Samples {
 public:
  void reserve(std::size_t n) { v_.reserve(n); }
  void add(double x) { v_.push_back(x); }
  void append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
  }
  [[nodiscard]] std::size_t size() const noexcept { return v_.size(); }
  /// q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q);
  [[nodiscard]] double mean() const;
  [[nodiscard]] double sum() const;

 private:
  std::vector<double> v_;
  std::size_t sorted_ = 0;  ///< size at the last sort
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one workload run reports. `failed` counts operations that were
/// shed, errored, timed out or returned a wrong result; `correct` is false
/// when any output check failed.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> notes;

  void add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  void fail_check(const std::string& why) {
    correct = false;
    note("CHECK FAILED: " + why);
  }
};

Result run_rpc(const Options& opt);
Result run_edt(const Options& opt);
Result run_fanout(const Options& opt);

/// Median of a small vector (copies).
double median_of(std::vector<double> v);

/// A run is several rounds, each on a fresh runtime. On a shared virtual
/// machine, stretches in which the hypervisor takes CPU time from the
/// guest lift a round's tail latencies 10-50x and cut its capacity by
/// half; such stalls only ever add time. So a run reports each figure as
/// its best over the rounds -- the lowest time, the highest rate -- and
/// prints the host's steal share per round beside it.
class Rounds {
 public:
  void begin();
  void end();
  [[nodiscard]] static double lowest(const std::vector<double>& per_round);
  [[nodiscard]] static double highest(const std::vector<double>& per_round);
  /// One line listing each round's steal share.
  [[nodiscard]] std::string describe() const;

 private:
  std::uint64_t steal0_ = 0;  ///< /proc/stat ticks at begin()
  std::uint64_t total0_ = 0;
  std::vector<double> steal_;  ///< per ended round: stolen share of CPU
};

/// Peak resident set size of the process in MiB.
double peak_rss_mb();

/// Minimal timer slack for the calling thread, so sub-millisecond sleeps
/// wake on time instead of up to 50 us late (the Linux default).
void set_min_timer_slack();

/// Sleep until steady-clock time `due_ns`: an absolute clock_nanosleep to
/// `spin_ns` before the deadline, then spin. Returns the wake time.
std::int64_t sleep_until_ns(std::int64_t due_ns, std::int64_t spin_ns);

/// Poisson arrival offsets (ns from phase start) at `rate` per second over
/// `seconds`, from a seed: the same (seed, stream) gives the same schedule.
std::vector<std::int64_t> poisson_offsets(std::uint64_t seed,
                                          std::uint64_t stream, double rate,
                                          double seconds);

/// splitmix64: a cheap, well-mixed hash for deriving per-item inputs.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Percent helper that never divides by zero.
inline double pct(double part, double whole) {
  return whole > 0.0 ? 100.0 * part / whole : 0.0;
}
inline double ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

}  // namespace evbench
