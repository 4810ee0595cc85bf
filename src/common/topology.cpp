#include "common/topology.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>

#include "common/rng.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace evmp::common {

namespace {

namespace fs = std::filesystem;

std::optional<std::string> read_file(const fs::path& path) {
  std::error_code ec;
  if (!fs::exists(path, ec) || ec) return std::nullopt;
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string text;
  std::getline(in, text);
  return text;
}

int min_or(const std::vector<int>& ids, int fallback) {
  return ids.empty() ? fallback : *std::min_element(ids.begin(), ids.end());
}

int default_cpu_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// The LLC group of one CPU: the shared_cpu_list of its deepest unified
/// cache level, canonicalised to the smallest member id.
std::optional<int> read_llc_group(const fs::path& cpu_dir, int self) {
  const fs::path cache = cpu_dir / "cache";
  std::error_code ec;
  if (!fs::is_directory(cache, ec) || ec) return std::nullopt;
  int best_level = -1;
  int group = self;
  for (const auto& entry : fs::directory_iterator(cache, ec)) {
    if (ec) break;
    const std::string name = entry.path().filename().string();
    if (name.rfind("index", 0) != 0) continue;
    const auto level_text = read_file(entry.path() / "level");
    const auto shared = read_file(entry.path() / "shared_cpu_list");
    if (!level_text || !shared) continue;
    const int level = std::atoi(level_text->c_str());
    if (level <= best_level) continue;
    const auto ids = parse_cpulist(*shared);
    if (ids.empty()) continue;
    best_level = level;
    group = min_or(ids, self);
  }
  if (best_level < 0) return std::nullopt;
  return group;
}

/// NUMA node of one CPU via its nodeN link (sysfs places a symlink named
/// after the node inside each cpu directory).
std::optional<int> read_numa_node(const fs::path& cpu_dir) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(cpu_dir, ec)) {
    if (ec) break;
    const std::string name = entry.path().filename().string();
    if (name.rfind("node", 0) != 0 || name.size() <= 4) continue;
    if (!std::isdigit(static_cast<unsigned char>(name[4]))) continue;
    return std::atoi(name.c_str() + 4);
  }
  return std::nullopt;
}

}  // namespace

std::vector<int> parse_cpulist(const std::string& text) {
  std::vector<int> ids;
  std::size_t i = 0;
  const auto digit = [&](std::size_t at) {
    return at < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[at])) != 0;
  };
  while (i < text.size()) {
    if (!digit(i)) break;
    int lo = 0;
    while (digit(i)) lo = lo * 10 + (text[i++] - '0');
    int hi = lo;
    if (i < text.size() && text[i] == '-') {
      ++i;
      if (!digit(i)) {
        ids.push_back(lo);  // "4-": keep the parsed endpoint
        break;
      }
      hi = 0;
      while (digit(i)) hi = hi * 10 + (text[i++] - '0');
    }
    for (int id = lo; id <= hi && id - lo < 4096; ++id) ids.push_back(id);
    if (i < text.size() && text[i] == ',') ++i;
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

const Topology& Topology::instance() {
  static const Topology topo =
      from_sysfs("/sys/devices/system/cpu", default_cpu_count());
  return topo;
}

Topology Topology::flat(int num_cpus) {
  if (num_cpus < 1) num_cpus = 1;
  Topology t;
  t.cpus_.resize(static_cast<std::size_t>(num_cpus));
  for (int i = 0; i < num_cpus; ++i) {
    // One LLC, one node, no SMT pairing: every cross-CPU distance is kLlc.
    t.cpus_[static_cast<std::size_t>(i)] = Cpu{i, i, 0, 0};
  }
  t.discovered_ = false;
  t.num_nodes_ = 1;
  return t;
}

Topology Topology::from_cpus(std::vector<Cpu> cpus) {
  Topology t;
  if (cpus.empty()) return flat(1);
  t.cpus_ = std::move(cpus);
  int max_node = 0;
  for (std::size_t i = 0; i < t.cpus_.size(); ++i) {
    t.cpus_[i].id = static_cast<int>(i);
    max_node = std::max(max_node, t.cpus_[i].numa_node);
  }
  // Re-canonicalise group ids as the smallest member id so equality
  // comparisons are meaningful regardless of how the caller labelled them.
  for (auto group : {&Cpu::smt_group, &Cpu::llc_group}) {
    std::vector<int> canon(t.cpus_.size());
    for (std::size_t i = 0; i < t.cpus_.size(); ++i) {
      int lowest = static_cast<int>(i);
      for (std::size_t j = 0; j < i; ++j) {
        if (t.cpus_[j].*group == t.cpus_[i].*group) {
          lowest = static_cast<int>(j);
          break;
        }
      }
      canon[i] = lowest;
    }
    for (std::size_t i = 0; i < t.cpus_.size(); ++i) {
      t.cpus_[i].*group = canon[i];
    }
  }
  t.discovered_ = true;
  t.num_nodes_ = max_node + 1;
  return t;
}

Topology Topology::from_sysfs(const std::string& root, int fallback_cpus) {
  const fs::path base(root);
  if (fallback_cpus < 1) fallback_cpus = default_cpu_count();

  // CPU inventory: the `possible` (or `online`) cpulist, else cpuN dirs.
  std::vector<int> cpu_ids;
  for (const char* file : {"possible", "online"}) {
    if (const auto text = read_file(base / file)) {
      cpu_ids = parse_cpulist(*text);
      if (!cpu_ids.empty()) break;
    }
  }
  if (cpu_ids.empty()) {
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(base, ec)) {
      if (ec) break;
      const std::string name = entry.path().filename().string();
      if (name.size() > 3 && name.rfind("cpu", 0) == 0 &&
          std::all_of(name.begin() + 3, name.end(), [](char c) {
            return std::isdigit(static_cast<unsigned char>(c)) != 0;
          })) {
        cpu_ids.push_back(std::atoi(name.c_str() + 3));
      }
    }
    std::sort(cpu_ids.begin(), cpu_ids.end());
  }
  if (cpu_ids.empty()) return flat(fallback_cpus);

  // Sysfs ids can be sparse; index densely in id order (worker mapping and
  // pinning both go through cpu().id, which keeps the sysfs id).
  Topology t;
  bool any_attribute = false;
  t.cpus_.reserve(cpu_ids.size());
  for (const int id : cpu_ids) {
    const fs::path cpu_dir = base / ("cpu" + std::to_string(id));
    Cpu cpu;
    cpu.id = id;
    cpu.smt_group = id;
    cpu.llc_group = 0;
    cpu.numa_node = 0;
    if (const auto siblings =
            read_file(cpu_dir / "topology" / "thread_siblings_list")) {
      cpu.smt_group = min_or(parse_cpulist(*siblings), id);
      any_attribute = true;
    }
    if (const auto llc = read_llc_group(cpu_dir, id)) {
      cpu.llc_group = *llc;
      any_attribute = true;
    } else {
      cpu.llc_group = id;  // unknown cache: assume private (no near tier)
    }
    if (const auto node = read_numa_node(cpu_dir)) {
      cpu.numa_node = *node;
      any_attribute = true;
    }
    t.cpus_.push_back(cpu);
  }
  if (!any_attribute) {
    // A bare cpu list with no topology attributes carries no distance
    // information — degrade to the uniform flat model.
    return flat(static_cast<int>(cpu_ids.size()));
  }

  // Positions, not sysfs ids, index cpus_ — remap group ids accordingly.
  std::vector<Cpu> records = std::move(t.cpus_);
  std::vector<int> pos(static_cast<std::size_t>(cpu_ids.back()) + 1, 0);
  for (std::size_t i = 0; i < cpu_ids.size(); ++i) {
    pos[static_cast<std::size_t>(cpu_ids[i])] = static_cast<int>(i);
  }
  for (auto& cpu : records) {
    const auto remap = [&](int id) {
      return (id >= 0 && id <= cpu_ids.back()) ? pos[static_cast<std::size_t>(id)]
                                               : 0;
    };
    cpu.smt_group = remap(cpu.smt_group);
    cpu.llc_group = remap(cpu.llc_group);
  }
  Topology result = from_cpus(std::move(records));
  // from_cpus overwrote the dense ids; restore the sysfs ids for pinning.
  for (std::size_t i = 0; i < cpu_ids.size(); ++i) {
    result.cpus_[i].id = cpu_ids[i];
  }
  return result;
}

Topology::Distance Topology::distance(int a, int b) const {
  if (a == b) return Distance::kSelf;
  const Cpu& ca = cpu(a);
  const Cpu& cb = cpu(b);
  if (ca.smt_group == cb.smt_group) return Distance::kSmt;
  if (ca.llc_group == cb.llc_group) return Distance::kLlc;
  if (ca.numa_node == cb.numa_node) return Distance::kNode;
  return Distance::kRemote;
}

int Topology::cpu_for_worker(int worker_index) const noexcept {
  const int n = num_cpus();
  if (worker_index < 0 || n == 0) return 0;
  return worker_index % n;
}

Topology::VictimOrder Topology::victim_order(int self, int worker_count,
                                             std::uint64_t seed) const {
  VictimOrder result;
  if (worker_count <= 1) return result;
  const int self_cpu = cpu_for_worker(self);
  // Bucket the other workers by distance tier (kSmt..kRemote).
  std::vector<std::vector<int>> tiers(4);
  for (int w = 0; w < worker_count; ++w) {
    if (w == self) continue;
    const Distance d = distance(self_cpu, cpu_for_worker(w));
    // Two workers folded onto one CPU (more workers than CPUs) rank as
    // SMT-near: they literally share the core.
    const int tier = d == Distance::kSelf
                         ? 0
                         : static_cast<int>(d) - static_cast<int>(Distance::kSmt);
    tiers[static_cast<std::size_t>(tier)].push_back(w);
  }
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(self) + 1);
  result.order.reserve(static_cast<std::size_t>(worker_count) - 1);
  for (std::size_t tier = 0; tier < tiers.size(); ++tier) {
    auto& bucket = tiers[tier];
    // Fisher–Yates within the tier: equal-distance victims are probed in a
    // per-worker random order so thieves fan out instead of convoying.
    for (std::size_t i = bucket.size(); i > 1; --i) {
      std::swap(bucket[i - 1], bucket[rng.next_below(i)]);
    }
    result.order.insert(result.order.end(), bucket.begin(), bucket.end());
    if (tier <= 1) result.near_count = result.order.size();  // SMT + LLC
  }
  return result;
}

namespace {
int read_usable_cpus() noexcept {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
#endif
  return default_cpu_count();
}

// Forces the read during static initialisation, on the main thread: a
// first call from a pinned worker would otherwise see that worker's
// one-CPU mask.
[[maybe_unused]] const int g_usable_cpus_at_start = Topology::usable_cpus();
}  // namespace

int Topology::usable_cpus() noexcept {
  static const int cpus = read_usable_cpus();
  return cpus;
}

bool Topology::pin_current_thread(int cpu) noexcept {
#if defined(__linux__)
  if (cpu < 0 || cpu >= CPU_SETSIZE) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

}  // namespace evmp::common
