// evbench: the EventMP benchmark program.
//
//   evbench --workload rpc|edt|fanout --seed N --seconds S --trace 0|1
//
// With --trace 0 a run measures the workload's end-to-end metrics with
// tracing off. With --trace 1 it runs the workload's steady phase twice,
// untraced then traced, and reports per-layer metrics from the spans plus
// the tracing overhead. Human-readable lines come first; the last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. The exit code is non-zero when any output check
// failed or any operation failed.
#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <set>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/topology.hpp"

namespace {

using evbench::Options;
using evbench::Result;

struct Workload {
  const char* name;
  Result (*run)(const Options&);
  const char* why;
};

// One line each on why the workload is in the benchmark (BENCHMARK.json
// carries the same sentences).
constexpr Workload kWorkloads[] = {
    {"rpc", evbench::run_rpc,
     "Loopback HTTP front end with the computation taken out: reactor "
     "wake, HTTP parse/encode, Algorithm 1 dispatch and the reactor hop "
     "set each request's cost."},
    {"edt", evbench::run_edt,
     "The paper's EDT scenario (Figs 7/8): events await Crypt kernels "
     "run by leased fork-join teams on a worker target while await "
     "pumping keeps the EDT live."},
    {"fanout", evbench::run_fanout,
     "Closed-loop bursts of 64 tiny name_as blocks joined by wait(tag): "
     "the submitter's per-block dispatch cost, not the block work, "
     "bounds throughput."},
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload reports every metric of its mode, in this order (the
// lists BENCHMARK.json declares). A per-layer metric of a layer that is
// not on a workload's path reads 0.
constexpr MetricSpec kEndToEnd[] = {
    {"latency_p50_us", "us"}, {"throughput_per_s", "1/s"},
    {"setup_s", "s"},         {"rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"net.send_us", "us"},
    {"net.ingress_us", "us"},
    {"net.egress_us", "us"},
    {"net.parse_ns", "ns"},
    {"net.encode_ns", "ns"},
    {"net.epoll_waits_per_req", "count"},
    {"net.wakeups_per_req", "count"},
    {"net.tasks_per_req", "count"},
    {"net.shed", "count"},
    {"net.errors", "count"},
    {"app.handler_us", "us"},
    {"core.dispatch_us", "us"},
    {"core.join_us", "us"},
    {"core.await_pumped_per_event", "count"},
    {"core.allocs_per_op", "count"},
    {"exec.queue_wait_us", "us"},
    {"exec.busy_pct", "%"},
    {"exec.steals_per_block", "count"},
    {"exec.local_pop_ratio", "count"},
    {"exec.queue_collisions_per_push", "count"},
    {"exec.queue_max_depth", "count"},
    {"event.post_ns", "ns"},
    {"event.dispatch_delay_p50_us", "us"},
    {"event.dispatch_delay_p90_us", "us"},
    {"event.busy_pct", "%"},
    {"event.max_nesting", "count"},
    {"fj.lease_us", "us"},
    {"fj.granted_width_mean", "count"},
    {"fj.teams_created", "count"},
    {"kernel.run_ms", "ms"},
    {"gen.lag_p50_us", "us"},
    {"gen.lag_p99_us", "us"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

/// Order the workload's metrics by the mode's list, fill per-layer gaps
/// with 0, and reject names or units outside the list.
bool normalise(Result& r, bool trace) {
  std::vector<evbench::Metric> out;
  bool ok = true;
  const auto emit = [&](const auto& specs, bool fill) {
    for (const MetricSpec& spec : specs) {
      auto it = std::find_if(r.metrics.begin(), r.metrics.end(),
                             [&](const auto& m) {
                               return m.name == spec.name;
                             });
      if (it == r.metrics.end()) {
        if (!fill) {
          std::fprintf(stderr, "evbench: metric %s missing\n", spec.name);
          ok = false;
        }
        out.push_back({spec.name, spec.unit, 0.0});
        continue;
      }
      if (it->unit != spec.unit) {
        std::fprintf(stderr, "evbench: metric %s has unit %s, not %s\n",
                     spec.name, it->unit.c_str(), spec.unit);
        ok = false;
      }
      out.push_back(*it);
      r.metrics.erase(it);
    }
  };
  if (trace) {
    emit(kPerLayer, true);
  } else {
    emit(kEndToEnd, false);
  }
  for (const auto& m : r.metrics) {
    std::fprintf(stderr, "evbench: metric %s is not declared\n",
                 m.name.c_str());
    ok = false;
  }
  r.metrics = std::move(out);
  return ok;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "evbench: %s\nusage: evbench --workload rpc|edt|fanout "
               "--seed N --seconds S --trace 0|1\n",
               msg);
  std::exit(2);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

int allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string fingerprint(const Options& opt, const Workload& w) {
  const auto& topo = evmp::common::Topology::instance();
  std::set<int> smt;
  std::set<int> llc;
  for (int i = 0; i < topo.num_cpus(); ++i) {
    smt.insert(topo.cpu(i).smt_group);
    llc.insert(topo.cpu(i).llc_group);
  }
  std::string s = "{\"fingerprint\": {";
  s += "\"nproc\": " + std::to_string(allowed_cpus());
  s += ", \"hardware_concurrency\": " +
       std::to_string(std::thread::hardware_concurrency());
  s += ", \"topology\": {\"cpus\": " + std::to_string(topo.num_cpus()) +
       ", \"cores\": " + std::to_string(smt.size()) +
       ", \"llc_groups\": " + std::to_string(llc.size()) +
       ", \"numa_nodes\": " + std::to_string(topo.num_nodes()) +
       ", \"discovered\": " + (topo.discovered() ? "true" : "false") + "}";
  s += ", \"compiler\": " + json_string(EVBENCH_COMPILER);
  s += ", \"build_type\": " + json_string(EVBENCH_BUILD_TYPE);
  s += "}, \"workload\": " + json_string(w.name);
  s += ", \"why\": " + json_string(w.why);
  s += ", \"seed\": " + std::to_string(opt.seed);
  s += ", \"seconds\": " + json_number(opt.seconds);
  s += ", \"trace\": " + std::string(opt.trace ? "true" : "false") + "}";
  return s;
}

std::string result_json(const Result& r) {
  std::string s = "{\"correct\": ";
  s += r.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : r.metrics) {
    if (!first) s += ", ";
    first = false;
    s += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
         ", \"unit\": " + json_string(m.unit) + "}";
  }
  return s + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(opt.seconds >= 1.0 && opt.seconds <= 120.0)) {
        usage("--seconds takes a number from 1 to 120");
      }
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      opt.trace = val == "1";
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  const Workload* w = nullptr;
  for (const auto& cand : kWorkloads) {
    if (opt.workload == cand.name) w = &cand;
  }
  if (w == nullptr) usage(("unknown workload " + opt.workload).c_str());

  Result r;
  try {
    r = w->run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "evbench: %s failed: %s\n", w->name, e.what());
    return 1;
  }
  if (!normalise(r, opt.trace)) return 1;
  for (const auto& line : r.notes) std::printf("# %s\n", line.c_str());
  for (const auto& m : r.metrics) {
    std::printf("%-32s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-32s %16llu\n%-32s %16llu\n", "attempted",
              static_cast<unsigned long long>(r.attempted), "failed",
              static_cast<unsigned long long>(r.failed));
  std::printf("%s\n", fingerprint(opt, *w).c_str());
  std::printf("%s\n", result_json(r).c_str());
  std::fflush(stdout);
  return r.correct && r.failed == 0 ? 0 : 1;
}
