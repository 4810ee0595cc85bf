#pragma once
// CPU topology discovery: SMT siblings, shared-LLC groups and NUMA nodes,
// read once at startup from /sys/devices/system/cpu (Linux) with a flat
// single-node fallback everywhere else.
//
// The work-stealing executor uses this to order steal victims near-before-
// far: stealing from an SMT sibling or an LLC peer moves the task's cache
// footprint across a shared cache, while stealing from a remote NUMA node
// drags every captured cache line over the interconnect. ROADMAP item 5
// (elastic, topology-aware scheduling) and DESIGN.md §11 motivate the
// tiers; EXPERIMENTS.md §EL1 measures them.
//
// Discovery is deliberately forgiving: each per-CPU attribute degrades
// independently (no siblings file → the CPU is its own SMT group; no cache
// dir → one shared LLC; no node links → one node), and an unreadable root
// degrades to flat(n). A flat topology ranks every peer at the same
// distance, so victim ordering reduces to the shuffled-uniform order the
// executor used before this module existed — systems without sysfs lose
// the optimisation, never correctness.

#include <cstdint>
#include <string>
#include <vector>

namespace evmp::common {

/// Immutable snapshot of the machine's CPU topology. Copyable; computed
/// once per process for the shared instance().
class Topology {
 public:
  /// One logical CPU. Group ids are canonicalised as the smallest CPU id
  /// in the group, so two CPUs share a level iff their ids are equal.
  struct Cpu {
    int id = 0;
    int smt_group = 0;   ///< hardware threads of one physical core
    int llc_group = 0;   ///< CPUs sharing the last-level cache
    int numa_node = 0;   ///< CPUs sharing a memory controller
  };

  /// Distance tiers between two CPUs (used for victim ordering).
  enum class Distance : int {
    kSelf = 0,     ///< the same logical CPU
    kSmt = 1,      ///< same physical core (SMT siblings)
    kLlc = 2,      ///< same last-level cache
    kNode = 3,     ///< same NUMA node
    kRemote = 4,   ///< different NUMA node
  };

  /// A worker's steal order: other workers sorted near-before-far,
  /// randomised within each distance tier. `near_count` is the prefix
  /// length of victims within LLC distance (Distance <= kLlc).
  struct VictimOrder {
    std::vector<int> order;
    std::size_t near_count = 0;
  };

  /// The process-wide topology: sysfs discovery on Linux, flat fallback
  /// elsewhere. Computed on first use, immutable afterwards.
  static const Topology& instance();

  /// Parse a sysfs cpu tree rooted at `root` (normally
  /// "/sys/devices/system/cpu"; tests point it at synthetic fixtures).
  /// Falls back to flat(fallback_cpus) when the root yields no CPUs.
  static Topology from_sysfs(const std::string& root, int fallback_cpus = 0);

  /// Flat single-node model: n CPUs, one shared LLC, one NUMA node, no
  /// SMT pairing. Every cross-CPU distance is kLlc (uniform).
  static Topology flat(int num_cpus);

  /// Build from explicit records (tests, fake machines). Records are
  /// reindexed by position; group ids are re-canonicalised.
  static Topology from_cpus(std::vector<Cpu> cpus);

  [[nodiscard]] int num_cpus() const noexcept {
    return static_cast<int>(cpus_.size());
  }
  [[nodiscard]] const Cpu& cpu(int id) const { return cpus_.at(static_cast<std::size_t>(id)); }
  /// True when at least one sysfs topology attribute was actually read;
  /// false for flat fallbacks.
  [[nodiscard]] bool discovered() const noexcept { return discovered_; }
  [[nodiscard]] int num_nodes() const noexcept { return num_nodes_; }

  /// Distance tier between two logical CPUs.
  [[nodiscard]] Distance distance(int a, int b) const;

  /// The CPU a worker of a `worker_count`-wide pool lands on: workers map
  /// round-robin over the CPUs (worker i → cpu i mod num_cpus).
  [[nodiscard]] int cpu_for_worker(int worker_index) const noexcept;

  /// Near-before-far steal order for `self` among `worker_count` workers.
  /// Victims are grouped by distance(cpu(self), cpu(victim)) and shuffled
  /// within each tier with a deterministic per-worker RNG, so equal-tier
  /// victims spread contention instead of forming a convoy on one peer.
  [[nodiscard]] VictimOrder victim_order(int self, int worker_count,
                                         std::uint64_t seed = 0) const;

  /// Pin the calling thread to one CPU (sched_setaffinity). Returns false
  /// where unsupported or refused — callers must treat pinning as a hint.
  static bool pin_current_thread(int cpu) noexcept;

  /// CPUs this process may run on: the size of its affinity mask
  /// (sched_getaffinity), not the machine's CPU count that
  /// std::thread::hardware_concurrency() reports — under `taskset -c 0`
  /// this is 1. Read once, at program start (before any worker pins
  /// itself); at least 1. Every single-core guard in the runtime (spin
  /// windows, default team counts, the width governor's core
  /// budget) uses this count.
  static int usable_cpus() noexcept;

 private:
  std::vector<Cpu> cpus_;
  bool discovered_ = false;
  int num_nodes_ = 1;
};

/// Parse a sysfs cpulist string ("0-3,8,10-11") into CPU ids (sorted,
/// deduplicated). Malformed input yields the prefix parsed so far.
std::vector<int> parse_cpulist(const std::string& text);

}  // namespace evmp::common
