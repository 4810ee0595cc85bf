#include "baselines/swing_worker.hpp"

namespace evmp::baselines {

exec::WorkStealingExecutor& swing_worker_pool() {
  static exec::WorkStealingExecutor pool("swingworker-pool",
                                         kSwingWorkerPoolThreads);
  return pool;
}

}  // namespace evmp::baselines
