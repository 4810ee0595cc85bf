#include "asyncio/async_io.hpp"

#include <stdexcept>

#include "common/rng.hpp"
#include "common/tracing.hpp"

namespace evmp::io {

namespace {

std::uint64_t hash_name(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h == 0 ? 1 : h;  // 0 is the "no content" sentinel
}

}  // namespace

/// The timer callback that retires one operation. The loop destroys the
/// timers still pending when it stops; each retires its operation from
/// the destructor then, early, so shutdown() leaves no waiter hanging.
class AsyncIoService::Retire {
 public:
  Retire(AsyncIoService* service, std::unique_ptr<Pending> pending)
      : service_(service), pending_(std::move(pending)) {}
  Retire(Retire&&) noexcept = default;
  Retire& operator=(Retire&&) = delete;
  ~Retire() {
    if (pending_) service_->retire(*pending_);
  }

  void operator()() {
    service_->retire(*pending_);
    pending_.reset();
  }

 private:
  AsyncIoService* service_;
  std::unique_ptr<Pending> pending_;  ///< null once retired (or moved)
};

AsyncIoService::AsyncIoService() : AsyncIoService(Config{}) {}

AsyncIoService::AsyncIoService(Config cfg) : cfg_(cfg), loop_("asyncio") {
  loop_.start();
}

AsyncIoService::~AsyncIoService() { shutdown(); }

common::Nanos AsyncIoService::modeled_duration(const DeviceModel& model,
                                               std::size_t bytes) {
  double secs = common::to_sec(model.base_latency) +
                static_cast<double>(bytes) / model.bytes_per_sec;
  if (model.jitter_fraction > 0.0) {
    // The n-th draw is the n-th output of SplitMix64(seed): deterministic
    // per submission order, and submitters share no generator state.
    const std::uint64_t n = draws_.fetch_add(1, std::memory_order_relaxed);
    common::SplitMix64 gen(cfg_.seed + n * 0x9e3779b97f4a7c15ull);
    const double u =
        static_cast<double>(gen.next() >> 11) * 0x1.0p-53 * 2.0 - 1.0;
    secs *= 1.0 + model.jitter_fraction * u;
  }
  return common::Nanos{static_cast<std::int64_t>(secs * 1e9)};
}

IoOperation AsyncIoService::submit(const DeviceModel& model,
                                   std::size_t bytes,
                                   std::uint64_t content_seed,
                                   exec::Executor* post_to,
                                   exec::Task continuation) {
  IoOperation op;
  exec::CompletionRef state = exec::CompletionState::make();
  op.handle_ = exec::TaskHandle(state);
  op.due_ = common::now();
  if (stopping_.load(std::memory_order_acquire)) {
    state->set_exception(std::make_exception_ptr(
        std::runtime_error("AsyncIoService is shut down")));
    return op;
  }
  op.due_ += modeled_duration(model, bytes);
  auto pending = std::make_unique<Pending>(
      Pending{std::move(state), op.data_, bytes, content_seed, post_to,
              std::move(continuation)});
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  // The timer's deadline is now() + the remaining time: never before due.
  loop_.add_timer(op.due_ - common::now(),
                  exec::Task(Retire(this, std::move(pending))));
  return op;
}

IoOperation AsyncIoService::read_file(const std::string& name,
                                      std::size_t bytes) {
  return submit(cfg_.disk, bytes, hash_name(name), nullptr, {});
}

IoOperation AsyncIoService::write_file(const std::string& /*name*/,
                                       std::size_t bytes) {
  return submit(cfg_.disk, bytes, 0, nullptr, {});
}

IoOperation AsyncIoService::fetch_url(const std::string& url,
                                      std::size_t bytes) {
  return submit(cfg_.network, bytes, hash_name(url), nullptr, {});
}

IoOperation AsyncIoService::fetch_url_then(const std::string& url,
                                           std::size_t bytes,
                                           exec::Executor& executor,
                                           exec::Task on_complete) {
  return submit(cfg_.network, bytes, hash_name(url), &executor,
                std::move(on_complete));
}

// Loop thread: generate content (reads/fetches), flip the handle, fire the
// continuation.
void AsyncIoService::retire(Pending& p) {
  if (p.content_seed != 0) {
    p.data->resize(p.bytes);
    common::SplitMix64 gen(p.content_seed);
    for (auto& b : *p.data) {
      b = static_cast<std::uint8_t>(gen.next() & 0xff);
    }
  }
  bytes_.fetch_add(p.bytes, std::memory_order_relaxed);
  completed_.fetch_add(1, std::memory_order_relaxed);
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  p.state->set_done();
  if (p.post_to != nullptr && p.continuation) {
    p.post_to->post(std::move(p.continuation));
  }
}

void AsyncIoService::shutdown() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  // Accepted submissions still arm their timers in the loop's final
  // drain; the loop then destroys every pending timer, which retires it.
  loop_.stop();
  publish_counters();
}

void AsyncIoService::publish_counters(const std::string& prefix) const {
  auto& tracer = common::Tracer::instance();
  tracer.set_counter(prefix + ".ops_pending", in_flight());
  tracer.set_counter(prefix + ".ops_completed",
                     completed_.load(std::memory_order_relaxed));
  tracer.set_counter(prefix + ".bytes_transferred",
                     bytes_.load(std::memory_order_relaxed));
}

}  // namespace evmp::io
