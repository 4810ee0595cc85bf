#pragma once
// C++ port of java.util.concurrent.ExecutorService — the second manual
// baseline of §V.A ("ExecutorService (using SwingUtilities when
// necessary)"): tasks are submitted to a fixed pool and GUI updates are
// hopped to the EDT via invoke_later.

#include <future>
#include <type_traits>
#include <utility>

#include "executor/work_stealing_executor.hpp"

namespace evmp::baselines {

/// Executors.newFixedThreadPool equivalent with submit()/std::future.
class ExecutorService {
 public:
  explicit ExecutorService(std::size_t num_threads,
                           std::string name = "executor-service")
      : pool_(std::move(name), num_threads) {}

  /// Submit a callable; returns a future for its result. Exceptions
  /// propagate through the future, as in Java.
  template <class F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>&>> {
    using R = std::invoke_result_t<std::decay_t<F>&>;
    std::packaged_task<R()> task(std::forward<F>(fn));
    std::future<R> future = task.get_future();
    pool_.post([t = std::move(task)]() mutable { t(); });
    return future;
  }

  /// Fire-and-forget submission.
  template <class F>
  void execute(F&& fn) {
    pool_.post(exec::Task(std::forward<F>(fn)));
  }

  /// Drain queued tasks and join the pool (Java shutdown+awaitTermination).
  void shutdown() { pool_.shutdown(); }

  [[nodiscard]] exec::WorkStealingExecutor& pool() noexcept { return pool_; }

 private:
  exec::WorkStealingExecutor pool_;
};

}  // namespace evmp::baselines
