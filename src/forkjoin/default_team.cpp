#include "forkjoin/default_team.hpp"

#include "common/env.hpp"
#include "common/topology.hpp"

namespace evmp::fj {

namespace {

int default_thread_count() {
  if (auto v = common::env_long("EVMP_NUM_THREADS"); v && *v > 0) {
    return static_cast<int>(*v);
  }
  return common::Topology::usable_cpus();
}

}  // namespace

Team& default_team() {
  static Team team(default_thread_count());
  return team;
}

std::mutex& default_team_mutex() {
  static std::mutex mu;
  return mu;
}

}  // namespace evmp::fj
