#pragma once
// Span recording for the traced run.
//
// The benchmark stamps a span around each call it makes into one of the
// runtime's modules (client send/receive, the request handler, a target
// dispatch, a tag join, an event post, a team lease, a kernel run). Spans
// of one request, event or burst share its id. Each thread appends to its
// own chunked in-memory buffer -- no lock and no shared cache line on the
// record path -- and the buffers are collected once the traced phase has
// drained, then written out and reduced to per-layer numbers.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace evbench::trace {

enum class Kind : std::uint16_t {
  kClientSend,    ///< rpc: send() of one request; aux = scheduled time
  kClientReply,   ///< rpc: reply parsed (start == end)
  kHandler,       ///< rpc: request handler on the worker; aux = arrived
  kEventPost,     ///< edt: EventLoop::post by the load thread; aux = due time
  kEventHandler,  ///< edt: event handler on the EDT; aux = due time
  kAwait,         ///< edt: the await dispatch on the EDT
  kBlock,         ///< edt/fanout: target block body on a worker
  kLease,         ///< edt: TeamPool::lease_adaptive; aux = granted width
  kKernelRun,     ///< edt: Kernel::run_parallel on the leased team
  kDispatch,      ///< fanout: invoke_target_block on the submitter
  kJoin,          ///< fanout: wait_tag on the submitter
  kBurst,         ///< fanout: first dispatch -> wait_tag return
  kCount
};

const char* kind_name(Kind k) noexcept;

// No member initialisers: buffer chunks are allocated uninitialised, so
// growing a buffer on the record path does not write 640 KiB.
struct Span {
  std::uint64_t id;
  std::int64_t start;
  std::int64_t end;
  std::int64_t aux;
  Kind kind;
  std::uint16_t thread;
};

/// Process-wide switch; record() is a relaxed load and a return when off.
void set_enabled(bool on) noexcept;
[[nodiscard]] bool enabled() noexcept;

/// Append a span to the calling thread's buffer (no-op when disabled).
void record(Kind kind, std::uint64_t id, std::int64_t start,
            std::int64_t end, std::int64_t aux = 0) noexcept;

/// Move every recorded span out of all thread buffers. Call only after the
/// recording threads are quiescent (the phase has drained).
std::vector<Span> collect();

/// Spans dropped because a thread buffer hit its cap.
[[nodiscard]] std::uint64_t dropped() noexcept;

/// Where a workload's spans go: beside the benchmark binary, in its build
/// directory.
std::string output_path(const std::string& workload);

/// Write spans as CSV (kind,id,thread,start_ns,end_ns,aux): all of them, or
/// when there are more than kMaxCsvSpans, the earliest-starting ones (a
/// contiguous window of the run). Returns false when the file cannot be
/// written.
constexpr std::size_t kMaxCsvSpans = 1u << 18;
bool write_csv(const std::string& path, const std::vector<Span>& spans);

}  // namespace evbench::trace
