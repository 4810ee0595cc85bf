#pragma once
// C++ port of javax.swing.SwingWorker — the first manual baseline of the
// paper's §V.A evaluation (its Figure 3 shows the Java original).
//
// Lifecycle, faithfully reproduced:
//  * do_in_background() runs on a shared worker pool capped at 10 threads
//    ("The underlying implementation of SwingWorker maintains a default
//    10-thread-max thread pool", §V.A);
//  * publish(chunk) hands interim results to process(chunks) on the EDT,
//    with JDK-style coalescing (multiple publishes between EDT turns arrive
//    in one process() call);
//  * done() runs on the EDT after do_in_background() returns;
//  * get() blocks for the result.

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "event/event_loop.hpp"
#include "executor/completion.hpp"
#include "executor/executor.hpp"
#include "executor/work_stealing_executor.hpp"

namespace evmp::baselines {

/// The JDK cap on SwingWorker's shared pool.
inline constexpr std::size_t kSwingWorkerPoolThreads = 10;

/// Shared SwingWorker pool (created on first use, like the JDK's).
exec::WorkStealingExecutor& swing_worker_pool();

/// Abstract asynchronous worker; subclass and override do_in_background(),
/// process() and done(). Instances must be owned by std::shared_ptr
/// (execution keeps the worker alive via shared_from_this).
template <class Result, class Chunk>
class SwingWorker
    : public std::enable_shared_from_this<SwingWorker<Result, Chunk>> {
 public:
  explicit SwingWorker(event::EventLoop& edt,
                       exec::Executor* pool = nullptr)
      : edt_(edt), pool_(pool != nullptr ? *pool : swing_worker_pool()) {}
  virtual ~SwingWorker() = default;

  /// Schedule do_in_background() on the worker pool. Call once.
  void execute() {
    auto self = this->shared_from_this();
    pool_.post([self] { self->run_background(); });
  }

  /// Block until the background computation finished; rethrows its
  /// exception. (Java's get() throws ExecutionException; here the original
  /// exception propagates directly.)
  Result get() {
    state_.wait();
    std::scoped_lock lk(mu_);
    return result_;
  }

  [[nodiscard]] bool is_done() const { return state_.done(); }

 protected:
  /// The long-running computation; runs on a pool thread.
  virtual Result do_in_background() = 0;

  /// Receives coalesced published chunks; runs on the EDT.
  virtual void process(const std::vector<Chunk>& /*chunks*/) {}

  /// Completion callback; runs on the EDT.
  virtual void done() {}

  /// Queue an interim result for process(); callable from any thread.
  void publish(Chunk chunk) {
    bool need_schedule = false;
    {
      std::scoped_lock lk(mu_);
      pending_.push_back(std::move(chunk));
      need_schedule = !process_scheduled_;
      process_scheduled_ = true;
    }
    if (need_schedule) {
      auto self = this->shared_from_this();
      edt_.post([self] { self->drain_pending(); });
    }
  }

  [[nodiscard]] event::EventLoop& edt() noexcept { return edt_; }

 private:
  void run_background() {
    try {
      Result r = do_in_background();
      {
        std::scoped_lock lk(mu_);
        result_ = std::move(r);
      }
      state_.set_done();
    } catch (...) {
      state_.set_exception(std::current_exception());
    }
    auto self = this->shared_from_this();
    edt_.post([self] { self->done(); });
  }

  void drain_pending() {
    std::vector<Chunk> chunks;
    {
      std::scoped_lock lk(mu_);
      chunks.swap(pending_);
      process_scheduled_ = false;
    }
    if (!chunks.empty()) process(chunks);
  }

  event::EventLoop& edt_;
  exec::Executor& pool_;
  exec::CompletionState state_;
  std::mutex mu_;
  Result result_{};
  std::vector<Chunk> pending_;
  bool process_scheduled_ = false;
};

}  // namespace evmp::baselines
