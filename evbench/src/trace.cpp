#include "trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>

namespace evbench::trace {
namespace {

constexpr std::size_t kChunk = 16384;
constexpr std::size_t kMaxChunks = 256;  // 4M spans (160 MiB) per thread

struct Buffer {
  std::uint16_t thread = 0;
  std::vector<std::unique_ptr<Span[]>> chunks;
  // Published with release by the owning thread, read with acquire by
  // collect(); the owner is the only writer.
  std::atomic<std::size_t> count{0};
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<Buffer>> buffers;  // never shrinks
};

Registry& registry() {
  static Registry* r = new Registry;  // outlives threads that still hold
  return *r;                          // a pointer into it
}

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_dropped{0};
thread_local Buffer* t_buffer = nullptr;

Buffer* this_thread_buffer() {
  if (t_buffer != nullptr) return t_buffer;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto b = std::make_unique<Buffer>();
  b->thread = static_cast<std::uint16_t>(r.buffers.size());
  b->chunks.reserve(kMaxChunks);
  t_buffer = b.get();
  r.buffers.push_back(std::move(b));
  return t_buffer;
}

}  // namespace

const char* kind_name(Kind k) noexcept {
  switch (k) {
    case Kind::kClientSend: return "client.send";
    case Kind::kClientReply: return "client.reply";
    case Kind::kHandler: return "app.handler";
    case Kind::kEventPost: return "event.post";
    case Kind::kEventHandler: return "event.handler";
    case Kind::kAwait: return "core.await";
    case Kind::kBlock: return "exec.block";
    case Kind::kLease: return "fj.lease";
    case Kind::kKernelRun: return "kernel.run";
    case Kind::kDispatch: return "core.dispatch";
    case Kind::kJoin: return "core.join";
    case Kind::kBurst: return "fanout.burst";
    case Kind::kCount: break;
  }
  return "?";
}

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_release);
}

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void record(Kind kind, std::uint64_t id, std::int64_t start, std::int64_t end,
            std::int64_t aux) noexcept {
  if (!enabled()) return;
  Buffer* b = this_thread_buffer();
  const std::size_t n = b->count.load(std::memory_order_relaxed);
  const std::size_t chunk = n / kChunk;
  if (chunk >= kMaxChunks) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (chunk == b->chunks.size()) {
    b->chunks.push_back(std::make_unique_for_overwrite<Span[]>(kChunk));
  }
  Span& s = b->chunks[chunk][n % kChunk];
  s.id = id;
  s.start = start;
  s.end = end;
  s.aux = aux;
  s.kind = kind;
  s.thread = b->thread;
  b->count.store(n + 1, std::memory_order_release);
}

std::vector<Span> collect() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::size_t total = 0;
  for (const auto& b : r.buffers) {
    total += b->count.load(std::memory_order_acquire);
  }
  std::vector<Span> out;
  out.reserve(total);
  for (const auto& b : r.buffers) {
    const std::size_t n = b->count.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(b->chunks[i / kChunk][i % kChunk]);
    }
    b->count.store(0, std::memory_order_relaxed);
  }
  return out;
}

std::uint64_t dropped() noexcept {
  return g_dropped.load(std::memory_order_relaxed);
}

std::string output_path(const std::string& workload) {
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  std::string dir = ".";
  if (n > 0) {
    dir.assign(exe, static_cast<std::size_t>(n));
    dir.erase(dir.find_last_of('/'));
  }
  return dir + "/evbench-" + workload + ".spans.csv";
}

bool write_csv(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t cutoff = INT64_MAX;
  if (spans.size() > kMaxCsvSpans) {
    std::vector<std::int64_t> starts;
    starts.reserve(spans.size());
    for (const Span& s : spans) starts.push_back(s.start);
    std::nth_element(starts.begin(), starts.begin() + kMaxCsvSpans,
                     starts.end());
    cutoff = starts[kMaxCsvSpans];
  }
  std::fputs("kind,id,thread,start_ns,end_ns,aux\n", f);
  for (const Span& s : spans) {
    if (s.start >= cutoff) continue;
    std::fprintf(f, "%s,%llu,%u,%lld,%lld,%lld\n", kind_name(s.kind),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned>(s.thread),
                 static_cast<long long>(s.start),
                 static_cast<long long>(s.end),
                 static_cast<long long>(s.aux));
  }
  return std::fclose(f) == 0;
}

}  // namespace evbench::trace
