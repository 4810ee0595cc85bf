#pragma once
// Lightweight execution tracer.
//
// When enabled, the event loop and the executors record one span per
// dispatched handler/task; the buffer exports as Chrome trace-event JSON
// (open chrome://tracing or https://ui.perfetto.dev and load the file) —
// giving exactly the timeline view of the paper's Figure 1/2 diagrams for
// a real run. Disabled (the default) the hooks cost one relaxed atomic
// load per task.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"

namespace evmp::common {

/// One completed span.
struct TraceSpan {
  std::string name;      ///< e.g. "edt.dispatch", "worker.task"
  std::string category;  ///< e.g. "event", "executor"
  std::int64_t start_us = 0;  ///< relative to the tracer's epoch
  std::int64_t duration_us = 0;
  std::uint32_t thread_id = 0;  ///< small stable per-thread id
};

/// Process-wide span collector. Thread-safe; bounded (drops beyond cap).
class Tracer {
 public:
  /// The singleton instance used by the built-in hooks.
  static Tracer& instance();

  /// Turn collection on/off (off by default). Enabling resets the epoch.
  void enable(bool on);
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Record a completed span (no-op while disabled or at capacity).
  void record(std::string_view name, std::string_view category,
              TimePoint start, TimePoint end);

  /// Copy of everything collected so far.
  [[nodiscard]] std::vector<TraceSpan> snapshot() const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t dropped() const;
  void clear();

  /// Write the buffer as Chrome trace-event JSON. Returns false on I/O
  /// failure.
  bool write_chrome_trace(const std::string& path) const;

  /// Small stable id for the calling thread (assigned on first use).
  static std::uint32_t current_thread_id();

  /// Collection capacity (spans); default 1<<20.
  void set_capacity(std::size_t cap);

  // --- named counters -----------------------------------------------------
  // Executors publish their run-queue statistics here (batched posts,
  // local pops, steals, injection pops and collisions ...) keyed by
  // "<executor>.<counter>". Unlike spans, counters are collected even while
  // span tracing is disabled: they are set at executor shutdown, not on the
  // hot path, and the figure benches print them after each sweep.
  void set_counter(std::string name, std::uint64_t value);
  void add_counter(std::string name, std::uint64_t delta);
  [[nodiscard]] std::map<std::string, std::uint64_t> counters() const;
  void clear_counters();

 private:
  Tracer() = default;

  mutable std::mutex mu_;
  std::vector<TraceSpan> spans_;
  std::size_t capacity_ = 1u << 20;
  std::size_t dropped_ = 0;
  TimePoint epoch_{};
  std::atomic<bool> enabled_{false};

  mutable std::mutex counters_mu_;
  std::map<std::string, std::uint64_t> counters_;
};

/// RAII helper: records [construction, destruction) as one span.
class ScopedSpan {
 public:
  ScopedSpan(std::string_view name, std::string_view category)
      : name_(name), category_(category), start_(now()) {}
  ~ScopedSpan() {
    Tracer::instance().record(name_, category_, start_, now());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::string_view name_;
  std::string_view category_;
  TimePoint start_;
};

}  // namespace evmp::common
