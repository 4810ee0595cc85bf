// Tests for common::Topology: sysfs fixture parsing (including partial and
// missing trees degrading to the flat fallback), distance tiers, victim
// ordering (near-before-far, deterministic per seed) and the executor's
// topology-ordered stealing against a fake two-node machine.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/spin_wait.hpp"
#include "common/sync.hpp"
#include "common/topology.hpp"
#include "executor/work_stealing_executor.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace evmp::common {
namespace {

namespace fs = std::filesystem;

// --- parse_cpulist ---------------------------------------------------------

TEST(ParseCpulist, RangesAndSingles) {
  EXPECT_EQ(parse_cpulist("0-3,8,10-11"),
            (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
  EXPECT_EQ(parse_cpulist("5"), (std::vector<int>{5}));
  EXPECT_EQ(parse_cpulist("1-1"), (std::vector<int>{1}));
}

TEST(ParseCpulist, SortsAndDeduplicates) {
  EXPECT_EQ(parse_cpulist("3,1,2-3"), (std::vector<int>{1, 2, 3}));
}

TEST(ParseCpulist, MalformedYieldsParsedPrefix) {
  EXPECT_TRUE(parse_cpulist("").empty());
  EXPECT_TRUE(parse_cpulist("x").empty());
  EXPECT_EQ(parse_cpulist("0-2,junk"), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(parse_cpulist("4-"), (std::vector<int>{4}));
}

// --- sysfs fixtures --------------------------------------------------------

/// Builds synthetic /sys/devices/system/cpu trees under a fresh temp dir.
class SysfsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            ("evmp_topo_" +
             std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  void write(const fs::path& rel, const std::string& text) const {
    const fs::path full = root_ / rel;
    fs::create_directories(full.parent_path());
    std::ofstream out(full);
    out << text << "\n";
  }
  void mkdir(const fs::path& rel) const {
    fs::create_directories(root_ / rel);
  }

  /// The canonical fake machine: 8 CPUs, SMT pairs (0,1)(2,3)(4,5)(6,7),
  /// one LLC per 4-CPU node, nodes {0-3} and {4-7}.
  void write_two_node_machine() const {
    write("possible", "0-7");
    for (int id = 0; id < 8; ++id) {
      const std::string cpu = "cpu" + std::to_string(id);
      const int pair = id - (id % 2);
      write(cpu + "/topology/thread_siblings_list",
            std::to_string(pair) + "-" + std::to_string(pair + 1));
      write(cpu + "/cache/index0/level", "1");
      write(cpu + "/cache/index0/shared_cpu_list", std::to_string(id));
      write(cpu + "/cache/index3/level", "3");
      write(cpu + "/cache/index3/shared_cpu_list", id < 4 ? "0-3" : "4-7");
      mkdir(cpu + "/node" + std::to_string(id < 4 ? 0 : 1));
    }
  }

  [[nodiscard]] std::string root() const { return root_.string(); }

 private:
  fs::path root_;
};

TEST_F(SysfsFixture, FullTreeParses) {
  write_two_node_machine();
  const Topology topo = Topology::from_sysfs(root());
  EXPECT_TRUE(topo.discovered());
  EXPECT_EQ(topo.num_cpus(), 8);
  EXPECT_EQ(topo.num_nodes(), 2);
  EXPECT_EQ(topo.distance(0, 0), Topology::Distance::kSelf);
  EXPECT_EQ(topo.distance(0, 1), Topology::Distance::kSmt);
  EXPECT_EQ(topo.distance(0, 2), Topology::Distance::kLlc);
  EXPECT_EQ(topo.distance(0, 4), Topology::Distance::kRemote);
  EXPECT_EQ(topo.distance(4, 6), Topology::Distance::kLlc);
}

TEST_F(SysfsFixture, BareCpuListDegradesToFlat) {
  // A cpu list with no topology attributes carries no distance info.
  write("possible", "0-3");
  const Topology topo = Topology::from_sysfs(root());
  EXPECT_FALSE(topo.discovered());
  EXPECT_EQ(topo.num_cpus(), 4);
  EXPECT_EQ(topo.num_nodes(), 1);
  EXPECT_EQ(topo.distance(0, 3), Topology::Distance::kLlc);
}

TEST_F(SysfsFixture, MissingRootDegradesToFlatFallback) {
  const Topology topo =
      Topology::from_sysfs(root() + "/does_not_exist", /*fallback_cpus=*/3);
  EXPECT_FALSE(topo.discovered());
  EXPECT_EQ(topo.num_cpus(), 3);
  EXPECT_EQ(topo.distance(1, 2), Topology::Distance::kLlc);
}

TEST_F(SysfsFixture, PartialAttributesDegradeIndependently) {
  // Only cpus 0-1 expose SMT siblings; nobody exposes caches or nodes.
  write("possible", "0-3");
  write("cpu0/topology/thread_siblings_list", "0-1");
  write("cpu1/topology/thread_siblings_list", "0-1");
  const Topology topo = Topology::from_sysfs(root());
  EXPECT_TRUE(topo.discovered());
  EXPECT_EQ(topo.num_cpus(), 4);
  EXPECT_EQ(topo.distance(0, 1), Topology::Distance::kSmt);
  // Unknown caches are assumed private; same (default) node => kNode.
  EXPECT_EQ(topo.distance(2, 3), Topology::Distance::kNode);
}

TEST_F(SysfsFixture, CpuDirsScannedWhenNoPossibleFile) {
  for (int id = 0; id < 2; ++id) {
    const std::string cpu = "cpu" + std::to_string(id);
    write(cpu + "/topology/thread_siblings_list", "0-1");
  }
  const Topology topo = Topology::from_sysfs(root());
  EXPECT_TRUE(topo.discovered());
  EXPECT_EQ(topo.num_cpus(), 2);
  EXPECT_EQ(topo.distance(0, 1), Topology::Distance::kSmt);
}

TEST_F(SysfsFixture, SparseIdsKeepSysfsIdForPinning) {
  write("possible", "0,2");
  write("cpu0/topology/thread_siblings_list", "0");
  write("cpu2/topology/thread_siblings_list", "2");
  const Topology topo = Topology::from_sysfs(root());
  ASSERT_EQ(topo.num_cpus(), 2);
  EXPECT_EQ(topo.cpu(0).id, 0);
  EXPECT_EQ(topo.cpu(1).id, 2);  // dense index 1, sysfs id 2
}

// --- flat / from_cpus models ----------------------------------------------

TEST(Topology, FlatIsUniform) {
  const Topology topo = Topology::flat(4);
  EXPECT_EQ(topo.num_cpus(), 4);
  EXPECT_FALSE(topo.discovered());
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      EXPECT_EQ(topo.distance(a, b), a == b ? Topology::Distance::kSelf
                                            : Topology::Distance::kLlc);
    }
  }
}

TEST(Topology, InstanceIsUsable) {
  const Topology& topo = Topology::instance();
  EXPECT_GE(topo.num_cpus(), 1);
  EXPECT_EQ(&topo, &Topology::instance());
}

/// 2 nodes x 2 CPUs, one LLC per node, no SMT.
Topology fake_two_node() {
  return Topology::from_cpus({
      {0, 0, 0, 0},
      {1, 1, 0, 0},
      {2, 2, 2, 1},
      {3, 3, 2, 1},
  });
}

TEST(Topology, FromCpusCanonicalisesGroups) {
  // Arbitrary group labels: CPUs 0/1 share label 7, CPUs 2/3 label 9.
  const Topology topo = Topology::from_cpus({
      {0, 5, 7, 0},
      {1, 6, 7, 0},
      {2, 8, 9, 1},
      {3, 8, 9, 1},
  });
  EXPECT_EQ(topo.num_nodes(), 2);
  EXPECT_EQ(topo.distance(0, 1), Topology::Distance::kLlc);
  EXPECT_EQ(topo.distance(2, 3), Topology::Distance::kSmt);
  EXPECT_EQ(topo.distance(0, 2), Topology::Distance::kRemote);
}

// --- victim ordering -------------------------------------------------------

TEST(VictimOrder, NearBeforeFar) {
  const Topology topo = fake_two_node();
  const auto vo = topo.victim_order(/*self=*/0, /*worker_count=*/4);
  ASSERT_EQ(vo.order.size(), 3u);
  EXPECT_EQ(vo.near_count, 1u);
  EXPECT_EQ(vo.order[0], 1);  // the LLC peer probes first
  EXPECT_EQ((std::set<int>(vo.order.begin() + 1, vo.order.end())),
            (std::set<int>{2, 3}));
}

TEST(VictimOrder, SmtTierPrecedesLlcTier) {
  // 4 CPUs, SMT pairs (0,1)(2,3), all one LLC/node.
  const Topology topo = Topology::from_cpus({
      {0, 0, 0, 0},
      {1, 0, 0, 0},
      {2, 2, 0, 0},
      {3, 2, 0, 0},
  });
  const auto vo = topo.victim_order(0, 4);
  ASSERT_EQ(vo.order.size(), 3u);
  EXPECT_EQ(vo.order[0], 1);  // SMT sibling first
  EXPECT_EQ(vo.near_count, 3u);  // everything shares the LLC
}

TEST(VictimOrder, FlatDegradesToUniform) {
  const Topology topo = Topology::flat(4);
  const auto vo = topo.victim_order(2, 4);
  ASSERT_EQ(vo.order.size(), 3u);
  // One uniform tier: every peer is "near" and the order is a shuffle.
  EXPECT_EQ(vo.near_count, 3u);
  EXPECT_EQ((std::set<int>(vo.order.begin(), vo.order.end())),
            (std::set<int>{0, 1, 3}));
}

TEST(VictimOrder, DeterministicPerSeedAndWorker) {
  const Topology topo = Topology::flat(8);
  const auto a = topo.victim_order(3, 8, 42);
  const auto b = topo.victim_order(3, 8, 42);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.near_count, b.near_count);
}

TEST(VictimOrder, FoldedWorkersRankNearest) {
  // More workers than CPUs: worker 2 shares CPU 0 with worker 0.
  const Topology topo = Topology::flat(2);
  const auto vo = topo.victim_order(0, 4);
  ASSERT_EQ(vo.order.size(), 3u);
  EXPECT_EQ(vo.order[0], 2);  // same-CPU worker probes before LLC peers
}

TEST(VictimOrder, SingleWorkerHasNoVictims) {
  const Topology topo = Topology::flat(4);
  const auto vo = topo.victim_order(0, 1);
  EXPECT_TRUE(vo.order.empty());
  EXPECT_EQ(vo.near_count, 0u);
}

TEST(Topology, PinCurrentThreadIsAdvisory) {
  // Out-of-range is always refused; a real pin must land on the CPU.
  EXPECT_FALSE(Topology::pin_current_thread(-1));
  std::thread probe([] {
    const bool pinned = Topology::pin_current_thread(0);
#if defined(__linux__)
    if (pinned) {
      EXPECT_EQ(sched_getcpu(), 0);
    }
#else
    EXPECT_FALSE(pinned);
#endif
  });
  probe.join();
}

TEST(Topology, UsableCpusCountsTheAffinityMask) {
  // hardware_concurrency() ignores the mask; under `taskset -c 0` this
  // reads 1 where hardware_concurrency() still reports every CPU.
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  EXPECT_EQ(Topology::usable_cpus(), CPU_COUNT(&set));
#endif
  EXPECT_GE(Topology::usable_cpus(), 1);
}

// --- SpinWait -----------------------------------------------------------

TEST(SpinWait, WindowIsZeroOnOneUsableCpu) {
  EXPECT_EQ(SpinWait::window_for(1).count(), 0);
  EXPECT_EQ(SpinWait::window_for(2), SpinWait::kWindow);
  EXPECT_EQ(SpinWait::window_for(64), SpinWait::kWindow);
  EXPECT_EQ(SpinWait::window(), SpinWait::window_for(Topology::usable_cpus()));
  if (Topology::usable_cpus() == 1) {
    EXPECT_EQ(SpinWait::window().count(), 0);
  }
}

TEST(SpinWait, ZeroWindowIsAFewYieldsThenPark) {
  SpinWait spin(std::chrono::nanoseconds{0});
  int steps = 0;
  while (spin.spin()) ++steps;
  EXPECT_EQ(steps, 16);
  EXPECT_FALSE(spin.spin());  // stays over until reset
  spin.reset();
  EXPECT_TRUE(spin.spin());
}

TEST(SpinWait, SpinLastsTheWindow) {
  if (SpinWait::window().count() == 0) {
    GTEST_SKIP() << "one usable CPU: no spin window";
  }
  for (int round = 0; round < 3; ++round) {
    SpinWait spin;
    const auto begin = std::chrono::steady_clock::now();
    while (spin.spin()) {
    }
    const auto spent = std::chrono::steady_clock::now() - begin;
    EXPECT_GE(spent, SpinWait::window());
    EXPECT_LT(spent, std::chrono::seconds(1));
    spin.reset();  // a fresh window after progress
    EXPECT_TRUE(spin.spin());
  }
}

TEST(SpinWait, CapShortensTheWindow) {
  if (SpinWait::window().count() == 0) {
    GTEST_SKIP() << "one usable CPU: no spin window";
  }
  SpinWait spin(std::chrono::microseconds{5});
  const auto begin = std::chrono::steady_clock::now();
  while (spin.spin()) {
  }
  EXPECT_GE(std::chrono::steady_clock::now() - begin,
            std::chrono::microseconds{5});
}

}  // namespace
}  // namespace evmp::common

namespace evmp::exec {
namespace {

using evmp::common::Topology;

Topology fake_two_node() {
  return Topology::from_cpus({
      {0, 0, 0, 0},
      {1, 1, 0, 0},
      {2, 2, 2, 1},
      {3, 3, 2, 1},
  });
}

TEST(TopologyStealing, VictimOrdersAreLocalityAware) {
  WorkStealingExecutor pool("topo-order", 4, fake_two_node(), /*pin=*/false);
  // Worker 0 (cpu 0): near = worker 1 (LLC peer), far = workers 2 and 3.
  EXPECT_EQ(pool.near_victims_of(0), 1u);
  const auto order0 = pool.victim_order_for(0);
  ASSERT_EQ(order0.size(), 3u);
  EXPECT_EQ(order0[0], 1);
  // Worker 3 (cpu 3): near = worker 2.
  EXPECT_EQ(pool.near_victims_of(3), 1u);
  EXPECT_EQ(pool.victim_order_for(3)[0], 2);
  pool.shutdown();
}

TEST(TopologyStealing, ExactlyOnceUnderOrderedStealing) {
  // The locality-ordered probe loop must preserve the exactly-once
  // execution contract of the Chase-Lev stealing path.
  constexpr int kTasks = 20'000;
  std::vector<std::atomic<int>> runs(kTasks);
  {
    WorkStealingExecutor pool("topo-stress", 4, fake_two_node(),
                              /*pin=*/false);
    evmp::common::CountdownLatch latch(kTasks);
    for (int i = 0; i < kTasks; ++i) {
      pool.post([&runs, &latch, i] {
        runs[static_cast<std::size_t>(i)].fetch_add(1);
        latch.count_down();
      });
    }
    latch.wait();
    // Every execution is a local pop, a steal or an injection pop.
    EXPECT_EQ(pool.local_pops() + pool.steals() + pool.injection_pops(),
              static_cast<std::uint64_t>(kTasks));
    EXPECT_EQ(pool.steals(), pool.near_steals() + pool.far_steals());
    pool.shutdown();
  }
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(runs[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
  }
}

TEST(TopologyStealing, PinnedConstructorRunsWork) {
  // pin=true must behave identically even where sched_setaffinity is
  // unavailable or refused (pinning is advisory).
  WorkStealingExecutor pool("topo-pin", 2, Topology::flat(2), /*pin=*/true);
  std::atomic<int> ran{0};
  evmp::common::CountdownLatch latch(100);
  for (int i = 0; i < 100; ++i) {
    pool.post([&] {
      ran.fetch_add(1);
      latch.count_down();
    });
  }
  latch.wait();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_LE(pool.pinned_workers(), 2u);
  pool.shutdown();
}

}  // namespace
}  // namespace evmp::exec
