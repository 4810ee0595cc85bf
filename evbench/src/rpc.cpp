// Workload `rpc`: the NET1 / Figure 9 front end with the computation taken
// out. A single generator thread drives 4 keep-alive loopback connections
// to a net::Server in Mode::kHandler with Poisson open-loop arrivals and
// pipelining; each 64 B request is checksummed by a trivial handler on a
// 2-thread create_worker target and the reply carries the 8 B checksum.
// Generator + reactor + 2 workers = 4 busy threads.
//
// A run is several rounds of: set-up; a fixed-rate phase at about a third
// of the knee, which gives the latency quantiles and, from a task the
// generator posts to the reactor every 0.5 ms, the reactor's probe delay;
// and a capacity search for the highest offered rate that drains with no
// shed, no error and p90 <= 1 ms.
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "alloc_count.hpp"
#include "bench.hpp"
#include "core/runtime.hpp"
#include "net/http.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "trace.hpp"

namespace evbench {
namespace {

using namespace evmp;

constexpr int kConns = 4;
constexpr std::size_t kBodyBytes = 64;
constexpr int kWorkerThreads = 2;
// The knee sits between 50k and 100k req/s on a 4-CPU host; the fixed
// phase runs at about a third of it.
constexpr double kFixedRate = 25'000.0;
constexpr double kSearchStartRate = 50'000.0;
constexpr double kSearchMaxRate = 400'000.0;
constexpr int kRounds = 9;
constexpr int kSearchSteps = 10;
constexpr double kFixedShare = 0.5;  // of --seconds; the searches get the rest
constexpr std::size_t kWarmupRequests = 2000;
constexpr std::int64_t kLatencyLimitNs = 1'000'000;  // capacity p90 limit
constexpr std::int64_t kProbePeriodNs = 500'000;
// The generator sleeps in epoll_pwait2 only when the next send is further
// away than this and polls otherwise, so at the fixed rate neither a send
// nor the reply it waits for pays a wake-up of the generator thread.
constexpr std::int64_t kSpinNs = 200'000;
constexpr std::int64_t kDrainNs = 3'000'000'000;
constexpr std::size_t kReadChunk = 64 * 1024;

std::int64_t ns_of(common::TimePoint tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             tp.time_since_epoch())
      .count();
}

void fill_body(std::uint64_t seed, std::uint64_t id, std::uint8_t* out) {
  for (std::size_t k = 0; k < kBodyBytes / 8; ++k) {
    const std::uint64_t w = mix64(seed ^ (id * 8 + k));
    std::memcpy(out + 8 * k, &w, 8);
  }
}

http::Response checksum_handler(const http::Request& req) {
  const std::int64_t t0 = now_ns();
  http::Response r;
  r.id = req.id;
  r.checksum = net::fnv1a(req.payload);
  r.ok = true;
  if (trace::enabled()) {
    trace::record(trace::Kind::kHandler, req.id, t0, now_ns(),
                  ns_of(req.arrived));
  }
  return r;
}

/// Runtime, worker target and server; torn down in reverse order.
struct Fixture {
  Runtime rt;
  exec::ThreadPoolExecutor* worker = nullptr;
  std::unique_ptr<net::Server> server;

  Fixture() {
    worker = &rt.create_worker("worker", kWorkerThreads);
    net::Server::Config cfg;
    cfg.mode = net::Server::Mode::kHandler;
    cfg.target = "worker";
    cfg.handler = checksum_handler;
    cfg.name = "net";
    server = std::make_unique<net::Server>(rt, std::move(cfg));
    server->start();
  }
  ~Fixture() { server->stop(); }
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;
};

struct Pending {
  std::int64_t sched = 0;
  std::int64_t send_start = 0;
  std::uint64_t expect = 0;
  enum State : std::uint8_t { kUnsent, kSent, kAnswered } state = kUnsent;
};

struct PhaseResult {
  Samples latency;  ///< scheduled send -> reply parsed, ok replies (ns)
  Samples lag;      ///< actual - scheduled send (ns)
  Samples probe;    ///< reactor probe delay (ns)
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;  ///< replies matched to a sent request
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t bad = 0;   ///< wrong checksum, unknown id, protocol error
  std::uint64_t lost = 0;  ///< no reply by the drain deadline
  std::uint64_t probes_lost = 0;
  std::int64_t start = 0;
  std::int64_t last_reply = 0;
  std::uint64_t base_id = 0;

  [[nodiscard]] double completion_rate() const {
    const double secs = static_cast<double>(last_reply - start) / 1e9;
    return secs > 0.0 ? static_cast<double>(ok) / secs : 0.0;
  }
  [[nodiscard]] bool clean() const {
    return shed == 0 && bad == 0 && lost == 0;
  }
};

/// The open-loop generator: one thread, kConns pipelined connections,
/// epoll_pwait2 with nanosecond timeouts, every request timed from its
/// scheduled send.
class Client {
 public:
  Client(Fixture& f, std::uint64_t seed, std::size_t max_requests)
      : f_(f), seed_(seed), ep_(::epoll_create1(EPOLL_CLOEXEC)) {
    if (!ep_.valid()) throw std::runtime_error("epoll_create1 failed");
    for (int c = 0; c < kConns; ++c) connect_one(c);
    reqs_.reserve(max_requests);
    wire_.reserve(512);
    probe_delay_.reserve(static_cast<std::size_t>(120e9 / kProbePeriodNs));
  }

  /// Send requests at t0 + offsets[i], post reactor probes every
  /// kProbePeriodNs when asked, then wait until every reply is in (or
  /// kDrainNs passes).
  PhaseResult run_phase(const std::vector<std::int64_t>& offsets,
                        bool probes) {
    PhaseResult pr;
    const std::size_t n = offsets.size();
    pr.base_id = next_id_;
    base_ = next_id_;
    next_id_ += n;
    reqs_.assign(n, Pending{});
    pr.latency.reserve(n);
    pr.lag.reserve(n);
    const std::int64_t t0 = now_ns() + 1'000'000;
    const std::int64_t span = n == 0 ? 0 : offsets.back();
    const std::size_t np =
        probes ? static_cast<std::size_t>(span / kProbePeriodNs) : 0;
    probe_delay_.assign(np, -1);
    probes_done_.store(0, std::memory_order_relaxed);
    pr_ = &pr;
    pr.start = t0;
    std::size_t i = 0;
    std::size_t k = 0;
    for (;;) {
      std::int64_t now = now_ns();
      while (i < n && t0 + offsets[i] <= now) {
        send_request(i, t0 + offsets[i]);
        ++i;
        now = now_ns();
      }
      while (k < np &&
             t0 + static_cast<std::int64_t>(k) * kProbePeriodNs <= now) {
        post_probe(k, t0 + static_cast<std::int64_t>(k) * kProbePeriodNs);
        ++k;
      }
      if (i == n && k == np) break;
      std::int64_t due = INT64_MAX;
      if (i < n) due = t0 + offsets[i];
      if (k < np) {
        due = std::min(due, t0 + static_cast<std::int64_t>(k) * kProbePeriodNs);
      }
      poll_replies(std::max<std::int64_t>(0, due - now - kSpinNs));
    }
    const std::int64_t deadline = now_ns() + kDrainNs;
    while (pr.answered < n && now_ns() < deadline) {
      poll_replies(1'000'000);
    }
    while (probes_done_.load(std::memory_order_acquire) < np &&
           now_ns() < deadline) {
      poll_replies(100'000);
    }
    pr.sent = n;
    pr.lost = n - pr.answered;
    for (std::size_t p = 0; p < probes_done_.load(std::memory_order_acquire);
         ++p) {
      if (probe_delay_[p] >= 0) {
        pr.probe.add(static_cast<double>(probe_delay_[p]));
      }
    }
    pr.probes_lost = np - pr.probe.size();
    for (const Pending& q : reqs_) {
      if (q.state != Pending::kUnsent) {
        pr.lag.add(static_cast<double>(q.send_start - q.sched));
      }
    }
    pr_ = nullptr;
    return pr;
  }

  /// Encoded request bytes for ids [first, first + count), for timing the
  /// codec on the workload's own messages.
  std::vector<std::vector<std::uint8_t>> sample_wires(std::uint64_t first,
                                                      std::size_t count) const {
    std::vector<std::vector<std::uint8_t>> out(count);
    std::uint8_t body[kBodyBytes];
    for (std::size_t j = 0; j < count; ++j) {
      fill_body(seed_, first + j, body);
      net::encode_http_request(out[j], first + j,
                               std::span<const std::uint8_t>(body, kBodyBytes));
    }
    return out;
  }

 private:
  struct Conn {
    net::Fd fd;
    std::vector<std::uint8_t> in;
    std::size_t in_len = 0;
    std::vector<std::uint8_t> out;  ///< bytes a short send left behind
    std::size_t out_off = 0;
    bool want_write = false;
  };

  void connect_one(int c) {
    Conn& conn = conns_[static_cast<std::size_t>(c)];
    conn.fd = net::connect_tcp_loopback(f_.server->port());
    if (!conn.fd.valid()) throw std::runtime_error("connect failed");
    pollfd p{conn.fd.get(), POLLOUT, 0};
    if (::poll(&p, 1, 5000) != 1) throw std::runtime_error("connect timeout");
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(conn.fd.get(), SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      throw std::runtime_error("connect: " + std::string(std::strerror(err)));
    }
    conn.in.resize(kReadChunk * 2);
    conn.out.reserve(kReadChunk);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<std::uint32_t>(c);
    if (::epoll_ctl(ep_.get(), EPOLL_CTL_ADD, conn.fd.get(), &ev) != 0) {
      throw std::runtime_error("epoll_ctl failed");
    }
  }

  void set_want_write(int c, bool on) {
    Conn& conn = conns_[static_cast<std::size_t>(c)];
    if (conn.want_write == on) return;
    conn.want_write = on;
    epoll_event ev{};
    ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
    ev.data.u32 = static_cast<std::uint32_t>(c);
    ::epoll_ctl(ep_.get(), EPOLL_CTL_MOD, conn.fd.get(), &ev);
  }

  void send_request(std::size_t i, std::int64_t sched) {
    const std::uint64_t id = base_ + i;
    std::uint8_t body[kBodyBytes];
    fill_body(seed_, id, body);
    const std::span<const std::uint8_t> payload(body, kBodyBytes);
    Pending& p = reqs_[i];
    p.sched = sched;
    p.expect = net::fnv1a(payload);
    wire_.clear();
    net::encode_http_request(wire_, id, payload);
    const int c = static_cast<int>(i % kConns);
    Conn& conn = conns_[static_cast<std::size_t>(c)];
    const std::int64_t s0 = now_ns();
    p.send_start = s0;
    p.state = Pending::kSent;
    std::size_t off = 0;
    if (conn.out_off == conn.out.size()) {
      const ssize_t w = ::send(conn.fd.get(), wire_.data(), wire_.size(),
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (w > 0) off = static_cast<std::size_t>(w);
    }
    if (off < wire_.size()) {
      conn.out.insert(conn.out.end(),
                      wire_.begin() + static_cast<std::ptrdiff_t>(off),
                      wire_.end());
      flush(c);
    }
    if (trace::enabled()) {
      trace::record(trace::Kind::kClientSend, id, s0, now_ns(), sched);
    }
  }

  void flush(int c) {
    Conn& conn = conns_[static_cast<std::size_t>(c)];
    while (conn.out_off < conn.out.size()) {
      const ssize_t w = ::send(conn.fd.get(), conn.out.data() + conn.out_off,
                               conn.out.size() - conn.out_off,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (w > 0) {
        conn.out_off += static_cast<std::size_t>(w);
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        set_want_write(c, true);
        return;
      }
      throw std::runtime_error("send failed");
    }
    conn.out.clear();
    conn.out_off = 0;
    set_want_write(c, false);
  }

  void post_probe(std::size_t k, std::int64_t due) {
    f_.server->reactor().post(exec::Task([this, k, due] {
      probe_delay_[k] = now_ns() - due;
      probes_done_.fetch_add(1, std::memory_order_release);
    }));
  }

  void poll_replies(std::int64_t timeout_ns) {
    epoll_event evs[kConns];
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000);
    const int m = ::epoll_pwait2(ep_.get(), evs, kConns, &ts, nullptr);
    for (int e = 0; e < m; ++e) {
      const int c = static_cast<int>(evs[e].data.u32);
      if ((evs[e].events & EPOLLOUT) != 0) flush(c);
      if ((evs[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) read_conn(c);
    }
  }

  void read_conn(int c) {
    Conn& conn = conns_[static_cast<std::size_t>(c)];
    for (;;) {
      if (conn.in.size() - conn.in_len < kReadChunk) {
        conn.in.resize(conn.in_len + kReadChunk);
      }
      const ssize_t r = ::recv(conn.fd.get(), conn.in.data() + conn.in_len,
                               conn.in.size() - conn.in_len, MSG_DONTWAIT);
      if (r > 0) {
        conn.in_len += static_cast<std::size_t>(r);
        parse(conn);
        continue;
      }
      if (r < 0 && errno == EINTR) continue;
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      throw std::runtime_error("server closed a connection");
    }
  }

  void parse(Conn& conn) {
    std::size_t off = 0;
    for (;;) {
      net::HttpResponse resp;
      std::size_t consumed = 0;
      const auto st = net::parse_http_response(
          std::span<const std::uint8_t>(conn.in.data() + off,
                                        conn.in_len - off),
          &consumed, &resp);
      if (st == net::ParseStatus::kNeedMore) break;
      if (st == net::ParseStatus::kError) {
        throw std::runtime_error("malformed HTTP response");
      }
      off += consumed;
      on_reply(resp);
    }
    if (off > 0) {
      std::memmove(conn.in.data(), conn.in.data() + off, conn.in_len - off);
      conn.in_len -= off;
    }
  }

  void on_reply(const net::HttpResponse& resp) {
    const std::int64_t t = now_ns();
    PhaseResult& pr = *pr_;
    const std::uint64_t idx = resp.id - base_;
    if (resp.id < base_ || idx >= reqs_.size() ||
        reqs_[idx].state != Pending::kSent) {
      ++pr.bad;  // unknown, stale or duplicate id
      return;
    }
    Pending& p = reqs_[idx];
    p.state = Pending::kAnswered;
    ++pr.answered;
    if (resp.status == net::kStatusShed) {
      ++pr.shed;
      return;
    }
    if (resp.status != net::kStatusOk || resp.checksum != p.expect) {
      ++pr.bad;
      return;
    }
    ++pr.ok;
    pr.last_reply = t;
    pr.latency.add(static_cast<double>(t - p.sched));
    if (trace::enabled()) {
      trace::record(trace::Kind::kClientReply, resp.id, t, t);
    }
  }

  Fixture& f_;
  std::uint64_t seed_;
  net::Fd ep_;
  std::array<Conn, kConns> conns_;
  std::vector<Pending> reqs_;
  std::vector<std::uint8_t> wire_;
  std::uint64_t next_id_ = 1;
  std::uint64_t base_ = 1;
  PhaseResult* pr_ = nullptr;
  // Written on the reactor thread; read after probes_done_ (acquire).
  std::vector<std::int64_t> probe_delay_;
  std::atomic<std::size_t> probes_done_{0};
};

/// Count a phase's failures; sheds count only when `shed_fails`.
void account(Result& r, const PhaseResult& pr, bool shed_fails,
             const char* what) {
  r.attempted += pr.sent;
  r.failed += pr.bad + pr.lost + (shed_fails ? pr.shed : 0);
  if (pr.bad != 0) {
    r.fail_check(std::string(what) + ": " + std::to_string(pr.bad) +
                 " replies with a wrong checksum, status or id");
  }
  if (pr.lost != 0 || pr.probes_lost != 0) {
    r.fail_check(std::string(what) + ": " + std::to_string(pr.lost) +
                 " requests and " + std::to_string(pr.probes_lost) +
                 " probes never answered");
  }
}

double ns_per_op(const std::function<void()>& body, std::size_t ops) {
  std::vector<double> reps;
  for (int rep = 0; rep < 5; ++rep) {
    std::size_t done = 0;
    const std::int64_t t0 = now_ns();
    std::int64_t t1 = t0;
    do {
      body();
      done += ops;
      t1 = now_ns();
    } while (t1 - t0 < 20'000'000);
    reps.push_back(static_cast<double>(t1 - t0) / static_cast<double>(done));
  }
  return median_of(reps);
}

/// One capacity search: grow the offered rate by 1.25x from
/// kSearchStartRate until a step fails, then bisect between the highest
/// pass and the lowest fail. Returns the completion rate of the highest
/// passing step (0 when none passed).
double capacity_search(Client& client, Result& r, std::uint64_t seed,
                       int search, double step_s) {
  double rate = kSearchStartRate;
  double lo = 0.0;
  double hi = 0.0;
  double capacity = 0.0;
  std::string trail;
  for (int step = 0; step < kSearchSteps; ++step) {
    PhaseResult pr = client.run_phase(
        poisson_offsets(
            seed,
            100 + static_cast<std::uint64_t>(search * kSearchSteps + step),
            rate, step_s),
        false);
    // Sheds are the overload signal this search looks for, so they fail
    // the step, not the workload; wrong or missing replies fail both.
    account(r, pr, false, "capacity step");
    const double p90 = pr.latency.quantile(0.9);
    const bool pass = pr.clean() && p90 <= kLatencyLimitNs;
    trail += " " + std::to_string(static_cast<int>(rate / 1e3)) + "k:" +
             std::to_string(static_cast<int>(p90 / 1e3)) + "us" +
             (pass ? "+" : "-");
    if (pass) {
      lo = rate;
      capacity = pr.completion_rate();
    } else {
      hi = rate;
    }
    if (hi == 0.0) {
      rate = std::min(rate * 1.25, kSearchMaxRate);
    } else if (lo == 0.0) {
      rate = rate / 2.0;
    } else {
      rate = std::sqrt(lo * hi);
    }
  }
  r.note("capacity search " + std::to_string(search) +
         " (offered:p90, +pass -fail):" + trail + " -> " +
         std::to_string(static_cast<int>(capacity)) + " req/s");
  return capacity;
}

struct Setup {
  std::unique_ptr<Fixture> fixture;
  std::unique_ptr<Client> client;
  double seconds = 0.0;
};

/// Runtime + worker target + server start + connect + warm-up (one
/// pipelined burst of kWarmupRequests, all due at once), timed.
Setup set_up(const Options& opt, std::size_t max_requests, Result& r) {
  Setup s;
  const std::int64_t t0 = now_ns();
  s.fixture = std::make_unique<Fixture>();
  s.client = std::make_unique<Client>(*s.fixture, opt.seed, max_requests);
  account(r,
          s.client->run_phase(
              std::vector<std::int64_t>(kWarmupRequests, 0), false),
          true, "warm-up");
  s.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  return s;
}

}  // namespace

Result run_rpc(const Options& opt) {
  Result r;
  set_min_timer_slack();
  // Rounds of set-up, fixed-rate phase and capacity search, each on a
  // fresh runtime and server; every figure is the best over the rounds
  // (see Rounds): a host stall lifted single rounds' p90 from ~85 us to
  // 4 ms on a shared 4-vCPU host.
  const double fixed_s =
      opt.trace ? opt.seconds * 0.5 : opt.seconds * kFixedShare / kRounds;
  const double step_s =
      opt.seconds * (1.0 - kFixedShare) / (kRounds * kSearchSteps);
  const std::size_t max_requests = static_cast<std::size_t>(
      std::max(kFixedRate * fixed_s, kSearchMaxRate * step_s) * 1.2 + 4096);

  if (!opt.trace) {
    Samples latency;  // pooled, for the notes
    Samples lag;
    std::vector<double> p50s, p90s, probe50s, probe90s;
    std::vector<double> setups;
    std::vector<double> capacities;
    double rss_mb = 0.0;
    std::size_t probes = 0;
    Rounds rounds;
    for (int round = 0; round < kRounds; ++round) {
      rounds.begin();
      Setup s = set_up(opt, max_requests, r);
      setups.push_back(s.seconds);
      PhaseResult fixed = s.client->run_phase(
          poisson_offsets(opt.seed, static_cast<std::uint64_t>(round),
                          kFixedRate, fixed_s),
          true);
      account(r, fixed, true, "fixed-rate phase");
      p50s.push_back(fixed.latency.quantile(0.5));
      p90s.push_back(fixed.latency.quantile(0.9));
      probe50s.push_back(fixed.probe.quantile(0.5));
      probe90s.push_back(fixed.probe.quantile(0.9));
      latency.append(fixed.latency);
      lag.append(fixed.lag);
      // Peak memory at the fixed rate; the search's overload steps grow
      // the queues by however far each step overshoots.
      if (round == 0) rss_mb = peak_rss_mb();
      probes += fixed.probe.size();
      capacities.push_back(
          capacity_search(*s.client, r, opt.seed, round, step_s));
      r.note("round " + std::to_string(round) + ": set-up " +
             std::to_string(s.seconds * 1e3) + " ms, p50 " +
             std::to_string(p50s.back() / 1e3) + " us, p90 " +
             std::to_string(p90s.back() / 1e3) + " us, probe p50 " +
             std::to_string(probe50s.back() / 1e3) + " us, p90 " +
             std::to_string(probe90s.back() / 1e3) + " us, capacity " +
             std::to_string(static_cast<int>(capacities.back())) + " req/s");
      rounds.end();
    }
    r.note(rounds.describe());
    // The second-highest search, not the highest: a search that passes one
    // of the coarse x1.25 steps in an unusually quiet stretch overshoots
    // the others by up to 25%.
    std::sort(capacities.begin(), capacities.end());
    const double capacity = capacities[capacities.size() - 2];
    if (capacity <= 0.0) r.fail_check("no capacity step met the p90 limit");
    r.note("fixed phases: " + std::to_string(latency.size()) + " requests at " +
           std::to_string(static_cast<int>(kFixedRate)) + " req/s, p99 " +
           std::to_string(latency.quantile(0.99) / 1e3) + " us, p999 " +
           std::to_string(latency.quantile(0.999) / 1e3) + " us; gen lag p50 " +
           std::to_string(lag.quantile(0.5) / 1e3) + " us, p99 " +
           std::to_string(lag.quantile(0.99) / 1e3) + " us; " +
           std::to_string(probes) + " reactor probes");
    r.add("latency_p50_us", "us", Rounds::lowest(p50s) / 1e3);
    r.note("latency p90, best round: " +
           std::to_string(Rounds::lowest(p90s) / 1e3) + " us");
    r.add("throughput_per_s", "1/s", capacity);
    r.note("reactor probe p90, best round: " +
           std::to_string(Rounds::lowest(probe90s) / 1e3) + " us");
    r.add("setup_s", "s", Rounds::lowest(setups));
    r.add("rss_mb", "MiB", rss_mb);
    return r;
  }

  Setup s = set_up(opt, max_requests, r);
  Fixture& f = *s.fixture;
  Client& client = *s.client;
  const auto fixed_offsets = poisson_offsets(opt.seed, 0, kFixedRate, fixed_s);

  // Traced run: the fixed-rate phase untraced, then again traced.
  const std::uint64_t allocs0 = allocations();
  PhaseResult plain = client.run_phase(fixed_offsets, false);
  const double allocs_per_req = ratio(
      static_cast<double>(allocations() - allocs0),
      static_cast<double>(plain.sent));
  account(r, plain, true, "untraced phase");

  const net::ReactorStats rs0 = f.server->reactor().stats();
  const net::ServerStats ss0 = f.server->stats();
  const common::ShardedQueueStats qs0 = f.worker->queue_stats();
  trace::set_enabled(true);
  PhaseResult traced = client.run_phase(
      poisson_offsets(opt.seed, 1, kFixedRate, fixed_s), false);
  trace::set_enabled(false);
  account(r, traced, true, "traced phase");
  const net::ReactorStats rs1 = f.server->reactor().stats();
  const net::ServerStats ss1 = f.server->stats();
  const common::ShardedQueueStats qs1 = f.worker->queue_stats();
  const std::vector<trace::Span> spans = trace::collect();
  trace::write_csv(trace::output_path("rpc"), spans);

  // Reassemble each request from its spans: client send, handler, reply.
  struct Req {
    std::int64_t sched = 0, s0 = 0, s1 = 0, arrived = 0, h0 = 0, h1 = 0,
                 reply = 0;
    int parts = 0;
  };
  std::vector<Req> reqs(traced.sent);
  double handler_busy_ns = 0.0;
  for (const trace::Span& sp : spans) {
    if (sp.id < traced.base_id || sp.id - traced.base_id >= reqs.size()) {
      continue;
    }
    Req& q = reqs[sp.id - traced.base_id];
    switch (sp.kind) {
      case trace::Kind::kClientSend:
        q.sched = sp.aux, q.s0 = sp.start, q.s1 = sp.end, ++q.parts;
        break;
      case trace::Kind::kHandler:
        q.arrived = sp.aux, q.h0 = sp.start, q.h1 = sp.end, ++q.parts;
        handler_busy_ns += static_cast<double>(sp.end - sp.start);
        break;
      case trace::Kind::kClientReply:
        q.reply = sp.start, ++q.parts;
        break;
      default:
        break;
    }
  }
  Samples lag, send, ingress, dispatch, handler, egress;
  std::uint64_t complete = 0;
  std::uint64_t broken = 0;
  for (const Req& q : reqs) {
    if (q.parts != 3) continue;
    ++complete;
    const std::int64_t parts[] = {q.s0 - q.sched, q.arrived - q.s0,
                                  q.h0 - q.arrived, q.h1 - q.h0,
                                  q.reply - q.h1};
    std::int64_t sum = 0;
    for (std::int64_t p : parts) {
      if (p < 0) ++broken;
      sum += p;
    }
    if (sum != q.reply - q.sched) ++broken;
    lag.add(static_cast<double>(parts[0]));
    send.add(static_cast<double>(q.s1 - q.s0));
    ingress.add(static_cast<double>(parts[1]));
    dispatch.add(static_cast<double>(parts[2]));
    handler.add(static_cast<double>(parts[3]));
    egress.add(static_cast<double>(parts[4]));
  }
  if (complete != traced.ok) {
    r.fail_check("traced phase: " + std::to_string(complete) + " of " +
                 std::to_string(traced.ok) + " requests have all their spans");
  }
  if (broken != 0) {
    r.fail_check(std::to_string(broken) +
                 " traced requests whose layers do not add up to the "
                 "round trip");
  }
  r.note("trace: " + std::to_string(complete) + " requests; lag + ingress + "
         "dispatch + handler + egress == round trip for each, " +
         std::to_string(spans.size()) + " spans, " +
         std::to_string(trace::dropped()) + " dropped");

  // Codec cost on the workload's own bytes.
  const auto wires = client.sample_wires(traced.base_id, 1024);
  const double parse_ns = ns_per_op(
      [&] {
        for (const auto& w : wires) {
          net::HttpRequest req;
          std::size_t consumed = 0;
          if (net::parse_http_request(w, &consumed, &req) !=
              net::ParseStatus::kOk) {
            throw std::runtime_error("request codec round trip failed");
          }
        }
      },
      wires.size());
  std::vector<std::uint8_t> out;
  out.reserve(512);
  const double encode_ns = ns_per_op(
      [&] {
        for (std::uint64_t id = 1; id <= 1024; ++id) {
          out.clear();
          net::encode_http_response(out, net::kStatusOk, id, mix64(id), {});
        }
      },
      1024);

  const double reqs_d = static_cast<double>(traced.sent);
  const double wall_ns = static_cast<double>(traced.last_reply - traced.start);
  const double plain_p50 = plain.latency.quantile(0.5);
  r.add("net.send_us", "us", send.quantile(0.5) / 1e3);
  r.add("net.ingress_us", "us", ingress.quantile(0.5) / 1e3);
  r.add("net.egress_us", "us", egress.quantile(0.5) / 1e3);
  r.add("net.parse_ns", "ns", parse_ns);
  r.add("net.encode_ns", "ns", encode_ns);
  r.add("net.epoll_waits_per_req", "count",
        ratio(static_cast<double>(rs1.epoll_waits - rs0.epoll_waits), reqs_d));
  r.add("net.wakeups_per_req", "count",
        ratio(static_cast<double>(rs1.wakeups - rs0.wakeups), reqs_d));
  r.add("net.tasks_per_req", "count",
        ratio(static_cast<double>(rs1.tasks_run - rs0.tasks_run), reqs_d));
  r.add("net.shed", "count",
        static_cast<double>(ss1.requests_shed - ss0.requests_shed));
  r.add("net.errors", "count",
        static_cast<double>(ss1.protocol_errors - ss0.protocol_errors +
                            traced.bad));
  r.add("app.handler_us", "us", handler.quantile(0.5) / 1e3);
  r.add("core.dispatch_us", "us", dispatch.quantile(0.5) / 1e3);
  r.add("core.allocs_per_op", "count", allocs_per_req);
  r.add("exec.busy_pct", "%", pct(handler_busy_ns, kWorkerThreads * wall_ns));
  r.add("exec.queue_collisions_per_push", "count",
        ratio(static_cast<double>(qs1.collisions - qs0.collisions),
              static_cast<double>(qs1.pushes - qs0.pushes)));
  r.add("exec.queue_max_depth", "count", static_cast<double>(qs1.max_depth));
  r.add("gen.lag_p50_us", "us", lag.quantile(0.5) / 1e3);
  r.add("gen.lag_p99_us", "us", lag.quantile(0.99) / 1e3);
  r.add("trace.overhead_pct", "%",
        pct(traced.latency.quantile(0.5) - plain_p50, plain_p50));
  r.add("trace.spans", "count", static_cast<double>(spans.size()));
  return r;
}

}  // namespace evbench
