// Unit tests for the EventLoop (EDT): posting, its re-entrant pump, the
// stop protocol, the park announcement and poll window, timers,
// instrumentation, and the ResponseProbe / OpenLoopDriver load machinery.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/spin_wait.hpp"
#include "common/sync.hpp"
#include "core/runtime.hpp"
#include "event/event_loop.hpp"
#include "event/load.hpp"
#include "executor/work_stealing_executor.hpp"

namespace evmp::event {
namespace {

/// Spin until `done` holds or `limit` passes; true when it held.
template <class Pred>
bool spin_until(Pred done, std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// Wait `span` without blocking. Yields each step: a new thread often
/// starts on its creator's CPU, and a loop sharing this thread's CPU
/// must keep running (and its poll window keep elapsing) meanwhile.
void busy_wait(std::chrono::nanoseconds span) {
  const auto until = std::chrono::steady_clock::now() + span;
  while (std::chrono::steady_clock::now() < until) {
    std::this_thread::yield();
  }
}

TEST(EventLoop, DispatchesPostedEvents) {
  EventLoop loop;
  loop.start();
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    loop.post([&] { count.fetch_add(1); });
  }
  loop.wait_until_idle();
  EXPECT_EQ(count.load(), 10);
  EXPECT_EQ(loop.dispatched(), 10u);
}

TEST(EventLoop, PostBatchDispatchesInSubmissionOrder) {
  EventLoop loop;
  loop.start();
  std::vector<int> order;
  std::vector<exec::Task> batch;
  for (int i = 0; i < 16; ++i) {
    batch.emplace_back([&order, i] { order.push_back(i); });
  }
  loop.post_batch(batch);
  loop.wait_until_idle();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
  EXPECT_EQ(loop.dispatched(), 16u);
  EXPECT_EQ(loop.batch_posts(), 1u);
}

TEST(EventLoop, PostBatchToStoppedLoopIsDropped) {
  EventLoop loop;
  loop.start();
  loop.stop();
  std::atomic<bool> ran{false};
  std::vector<exec::Task> batch;
  batch.emplace_back([&] { ran.store(true); });
  loop.post_batch(batch);
  std::this_thread::sleep_for(std::chrono::milliseconds{5});
  EXPECT_FALSE(ran.load());
}

TEST(EventLoop, FifoDispatchOrder) {
  EventLoop loop;
  loop.start();
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    loop.post([&order, i] { order.push_back(i); });
  }
  loop.wait_until_idle();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoop, IsDispatchThread) {
  EventLoop loop;
  loop.start();
  EXPECT_FALSE(loop.is_dispatch_thread());
  std::atomic<bool> on_edt{false};
  loop.invoke_and_wait([&] { on_edt.store(loop.is_dispatch_thread()); });
  EXPECT_TRUE(on_edt.load());
}

TEST(EventLoop, InvokeAndWaitBlocksUntilRun) {
  EventLoop loop;
  loop.start();
  int value = 0;
  loop.invoke_and_wait([&] { value = 42; });
  EXPECT_EQ(value, 42);
}

TEST(EventLoop, InvokeAndWaitFromEdtRunsInline) {
  EventLoop loop;
  loop.start();
  int depth_value = 0;
  loop.invoke_and_wait([&] {
    // Would deadlock if it enqueued; must run inline.
    loop.invoke_and_wait([&] { depth_value = 7; });
  });
  EXPECT_EQ(depth_value, 7);
}

TEST(EventLoop, TimerFiresAfterDelay) {
  EventLoop loop;
  loop.start();
  common::CountdownLatch latch(1);
  const auto posted = common::now();
  common::TimePoint fired;
  loop.add_timer(common::Millis{20}, [&] {
    fired = common::now();
    latch.count_down();
  });
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{5}));
  EXPECT_GE(common::elapsed_ns(posted, fired), 20'000'000);
}

TEST(EventLoop, TimersFireInDeadlineOrder) {
  EventLoop loop;
  loop.start();
  std::vector<int> order;
  common::CountdownLatch latch(3);
  auto push = [&](int v) {
    order.push_back(v);
    latch.count_down();
  };
  loop.add_timer(common::Millis{40}, [&] { push(3); });
  loop.add_timer(common::Millis{5}, [&] { push(1); });
  loop.add_timer(common::Millis{20}, [&] { push(2); });
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{5}));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, TimersDueAtALateWakeFireInDeadlineOrder) {
  // The handler arms the later deadline first, then keeps the loop busy
  // past both: when it returns, both are due at once, and they must
  // fire by deadline, not by arming order.
  EventLoop loop;
  loop.start();
  std::vector<int> order;
  common::CountdownLatch latch(2);
  loop.post([&] {
    loop.add_timer(common::Millis{4}, [&] {
      order.push_back(2);
      latch.count_down();
    });
    loop.add_timer(common::Millis{2}, [&] {
      order.push_back(1);
      latch.count_down();
    });
    busy_wait(common::Millis{10});
  });
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{5}));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoop, TimerFiresOnce) {
  EventLoop loop("t.timer");
  loop.start();
  std::atomic<int> fired{0};
  loop.add_timer(common::Millis{5}, [&] { fired.fetch_add(1); });
  ASSERT_TRUE(spin_until([&] { return fired.load() == 1; },
                         std::chrono::seconds(5)));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(fired.load(), 1);  // one-shot
  loop.stop();
  const LoopStats s = loop.stats();
  EXPECT_EQ(s.timers_scheduled, 1u);
  EXPECT_EQ(s.timers_fired, 1u);
}

TEST(EventLoop, CancelledTimerNeverFires) {
  EventLoop loop("t.cancel");
  loop.start();
  std::atomic<bool> fired{false};
  const TimerId id =
      loop.add_timer(common::Millis{30}, [&] { fired.store(true); });
  loop.cancel_timer(id);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_FALSE(fired.load());
  loop.stop();
  EXPECT_EQ(loop.stats().timers_cancelled, 1u);
}

TEST(EventLoop, TimerCallbackMayRearmItself) {
  EventLoop loop("t.rearm");
  loop.start();
  std::atomic<int> ticks{0};
  std::function<void()> tick = [&] {
    if (ticks.fetch_add(1) + 1 < 3) {
      loop.add_timer(common::Millis{2}, exec::Task(tick));
    }
  };
  loop.add_timer(common::Millis{2}, exec::Task(tick));
  ASSERT_TRUE(spin_until([&] { return ticks.load() == 3; },
                         std::chrono::seconds(5)));
  loop.stop();
  EXPECT_EQ(loop.stats().timers_fired, 3u);
}

TEST(EventLoop, PumpOneDispatchesNestedEvent) {
  EventLoop loop;
  loop.start();
  std::atomic<bool> nested_ran{false};
  std::atomic<bool> order_ok{false};
  common::CountdownLatch latch(1);
  loop.post([&] {
    loop.post([&] { nested_ran.store(true); });
    // Re-entrant dispatch from inside a handler: the modified AWT queue.
    while (!nested_ran.load()) {
      ASSERT_TRUE(loop.pump_one());
    }
    order_ok.store(true);
    latch.count_down();
  });
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{5}));
  EXPECT_TRUE(order_ok.load());
  EXPECT_GE(loop.max_nesting(), 2);
}

TEST(EventLoop, PumpOneFromForeignThreadRefuses) {
  EventLoop loop;
  loop.start();
  loop.post([] {});
  EXPECT_FALSE(loop.pump_one());
  EXPECT_FALSE(loop.try_run_one());
  loop.wait_until_idle();
}

TEST(EventLoop, PumpOneReturnsFalseWhenEmpty) {
  EventLoop loop;
  loop.start();
  std::atomic<bool> pumped{true};
  loop.invoke_and_wait([&] { pumped.store(loop.pump_one()); });
  EXPECT_FALSE(pumped.load());
}

TEST(EventLoop, PostsRacingStopAreRunOrRefusedNeverLost) {
  // Producers hammer try_post() while stop() closes the loop. Each task
  // is either run by the final drain or refused with `false`; none is
  // lost, none runs twice. Every task holds a copy of `token`, so its use
  // count proves each task object — run or refused — was destroyed, i.e.
  // no queued node leaked.
  constexpr int kProducers = 4;
  for (int round = 0; round < 20; ++round) {
    EventLoop loop("t.race");
    loop.start();
    auto token = std::make_shared<int>(0);
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> ran{0};
    std::vector<std::jthread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&] {
        for (;;) {
          exec::Task task([&ran, token] { ran.fetch_add(1); });
          if (!loop.try_post(std::move(task))) break;
          accepted.fetch_add(1);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100 * (round % 5)));
    loop.stop();
    producers.clear();
    EXPECT_EQ(ran.load(), accepted.load()) << "round " << round;
    EXPECT_EQ(token.use_count(), 1) << "round " << round;
  }
}

TEST(EventLoop, StopWaitsForTheRunningHandlerAndTheQueue) {
  // Stop semantics: a handler running when stop() is called finishes,
  // and events accepted before it run; only later posts are refused.
  EventLoop loop;
  loop.start();
  common::CountdownLatch started(1);
  std::atomic<int> ran{0};
  loop.post([&] {
    started.count_down();
    busy_wait(common::Millis{5});
    ran.fetch_add(1);
  });
  ASSERT_TRUE(started.wait_for(std::chrono::seconds{5}));
  loop.post([&] { ran.fetch_add(1); });
  loop.stop();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_FALSE(loop.running());
  EXPECT_FALSE(loop.try_post([] { FAIL() << "ran after stop"; }));
}

TEST(EventLoop, StopIsIdempotent) {
  EventLoop loop;
  loop.start();
  loop.stop();
  loop.stop();
  EXPECT_FALSE(loop.running());
}

TEST(EventLoop, PostAfterStopIsDropped) {
  EventLoop loop;
  loop.start();
  loop.stop();
  while (loop.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  loop.post([] { FAIL() << "must not run"; });
  std::this_thread::sleep_for(std::chrono::milliseconds{5});
}

TEST(EventLoop, BusyTimeAccumulates) {
  EventLoop loop;
  loop.start();
  loop.invoke_and_wait([] { common::precise_sleep(common::Millis{15}); });
  loop.wait_until_idle();
  EXPECT_GE(loop.busy_time().count(), 14'000'000);
}

TEST(EventLoop, DispatchDelayRecorded) {
  EventLoop loop;
  loop.start();
  // Jam the EDT so the next event queues for a while.
  loop.post([] { common::precise_sleep(common::Millis{20}); });
  loop.post([] {});
  loop.wait_until_idle();
  EXPECT_EQ(loop.dispatch_delay().total_count(), 2u);
  EXPECT_GE(loop.dispatch_delay().percentile(1.0), 10'000'000u);
}

TEST(EventLoop, ResetStatsClears) {
  EventLoop loop;
  loop.start();
  loop.invoke_and_wait([] {});
  // invoke_and_wait returns once the handler ran, but the EDT accounts the
  // dispatch after that; wait for it so the reset is not overtaken.
  loop.wait_until_idle();
  loop.reset_stats();
  EXPECT_EQ(loop.dispatched(), 0u);
  EXPECT_EQ(loop.dispatch_delay().total_count(), 0u);
  EXPECT_EQ(loop.busy_time().count(), 0);
}

TEST(EventLoop, HandlerExceptionDoesNotKillLoop) {
  EventLoop loop;
  loop.start();
  auto prev = exec::unhandled_exception_hook();
  exec::set_unhandled_exception_hook(
      [](std::string_view, std::exception_ptr) {});
  loop.post([] { throw std::runtime_error("handler bug"); });
  std::atomic<bool> survived{false};
  loop.invoke_and_wait([&] { survived.store(true); });
  exec::set_unhandled_exception_hook(prev);
  EXPECT_TRUE(survived.load());
}

TEST(EventLoop, RunOnCallerThread) {
  EventLoop loop;
  std::atomic<bool> ran{false};
  loop.post([&] {
    ran.store(true);
    loop.stop();
  });
  loop.run();  // returns after stop()
  EXPECT_TRUE(ran.load());
}

TEST(EventLoop, TimerArmedAfterStopNeverFires) {
  EventLoop loop;
  loop.start();
  loop.stop();
  loop.add_timer(common::Millis{1}, [] { FAIL() << "must not run"; });
  std::this_thread::sleep_for(std::chrono::milliseconds{10});
  EXPECT_EQ(loop.stats().timers_scheduled, 0u);
}

TEST(EventLoop, PumpOnePromotesDueTimers) {
  EventLoop loop;
  loop.start();
  std::atomic<bool> timer_ran{false};
  common::CountdownLatch done(1);
  loop.post([&] {
    loop.add_timer(common::Millis{5}, [&] { timer_ran.store(true); });
    // Busy handler pumping: the due timer must surface through pump_one.
    const auto deadline = common::now() + common::Millis{500};
    while (!timer_ran.load() && common::now() < deadline) {
      if (!loop.pump_one()) {
        common::precise_sleep(common::Millis{1});
      }
    }
    done.count_down();
  });
  ASSERT_TRUE(done.wait_for(std::chrono::seconds{5}));
  EXPECT_TRUE(timer_ran.load());
}

TEST(EventLoop, TimersInterleaveWithImmediateEvents) {
  EventLoop loop;
  loop.start();
  std::vector<int> order;
  common::CountdownLatch done(3);
  auto push = [&](int v) {
    order.push_back(v);
    done.count_down();
  };
  loop.add_timer(common::Millis{30}, [&] { push(3); });
  loop.post([&] { push(1); });
  loop.post([&] { push(2); });
  ASSERT_TRUE(done.wait_for(std::chrono::seconds{5}));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, TimerFiresDuringAwaitPumping) {
  // A handler awaits a worker block that finishes only once the timer
  // it armed has fired: the await's pump must fire the timer.
  EventLoop loop;
  loop.start();
  Runtime rt;  // after loop: destroyed (and unregistered) first
  rt.register_edt("edt", loop);
  rt.create_worker("worker", 1);
  std::atomic<bool> timer_ran{false};
  std::atomic<bool> timer_on_edt{false};
  std::atomic<bool> worker_saw_timer{false};
  common::CountdownLatch done(1);
  loop.post([&] {
    loop.add_timer(common::Millis{5}, [&] {
      timer_on_edt.store(loop.is_dispatch_thread());
      timer_ran.store(true);
    });
    rt.invoke_target_block(
        "worker",
        [&] {
          worker_saw_timer.store(spin_until(
              [&] { return timer_ran.load(); }, std::chrono::seconds(5)));
        },
        Async::kAwait);
    done.count_down();
  });
  ASSERT_TRUE(done.wait_for(std::chrono::seconds{10}));
  EXPECT_TRUE(worker_saw_timer.load());
  EXPECT_TRUE(timer_on_edt.load());
  EXPECT_GE(loop.max_nesting(), 2);  // the timer ran nested in the handler
}

TEST(EventLoop, RunsPostedTasksOnItsOwnThread) {
  EventLoop loop("t.own");
  loop.start();
  std::atomic<bool> ran{false};
  std::atomic<bool> owned{false};
  loop.post([&] {
    owned.store(loop.owns_current_thread());
    ran.store(true);
  });
  ASSERT_TRUE(spin_until([&] { return ran.load(); }, std::chrono::seconds(5)));
  EXPECT_TRUE(owned.load());
  loop.stop();
  EXPECT_EQ(loop.stats().tasks_run, 1u);
}

TEST(EventLoop, PostsRacingTheParkAnnouncementAreNeverLost) {
  // A producer writes the eventfd only when it sees the loop parked. A
  // post landing just as the loop leaves its poll window and announces
  // the park must still run: the loop's re-check after the announcement
  // sees it, or the producer sees the announcement. Each round posts
  // after a delay swept across the end of the window and waits (bounded)
  // for the task; a lost wake would leave it queued with the loop
  // blocked in epoll_wait. Half the sweeps are narrow, around the
  // window's end, where the announcement races the post. Odd rounds post
  // a batch. The loop has no fds: the wake comes from the eventfd alone.
  EventLoop loop("t.park");
  loop.start();
  const auto window = common::SpinWait::window();
  const std::chrono::nanoseconds wide =
      2 * window + std::chrono::microseconds{200};
  const std::chrono::nanoseconds narrow = std::chrono::microseconds{20};
  const auto narrow_from =
      std::max(window - narrow / 2, std::chrono::nanoseconds{0});
  constexpr int kSteps = 50;
  constexpr int kRounds = 400;
  std::atomic<int> ran{0};
  int expected = 0;
  for (int round = 0; round < kRounds; ++round) {
    const int step = round % kSteps;
    busy_wait((round / kSteps) % 2 == 0
                  ? narrow_from + narrow * step / kSteps
                  : wide * step / kSteps);
    if (round % 2 == 0) {
      loop.post([&ran] { ran.fetch_add(1); });
      expected += 1;
    } else {
      std::vector<exec::Task> batch;
      batch.emplace_back([&ran] { ran.fetch_add(1); });
      batch.emplace_back([&ran] { ran.fetch_add(1); });
      loop.post_batch(batch);
      expected += 2;
    }
    ASSERT_TRUE(spin_until([&] { return ran.load() == expected; },
                           std::chrono::seconds(5)))
        << "round " << round << ": posted task never ran (lost wake)";
  }
  loop.stop();
  EXPECT_GT(loop.stats().parks, 0u);  // some rounds met a parked loop
}

TEST(EventLoop, StopDuringThePollWindowReturns) {
  // stop() sets the stop flag and writes the eventfd only to a parked
  // loop; a loop inside its poll window must notice the flag by itself,
  // and one announcing its park must re-check it. Sweep the stop across
  // the window.
  const auto window = common::SpinWait::window();
  for (int round = 0; round < 60; ++round) {
    EventLoop loop("t.stopwin");
    loop.start();
    std::atomic<bool> ran{false};
    loop.post([&ran] { ran.store(true); });
    ASSERT_TRUE(
        spin_until([&] { return ran.load(); }, std::chrono::seconds(5)));
    busy_wait(window * (round % 12) / 10);
    const auto begin = std::chrono::steady_clock::now();
    loop.stop();
    EXPECT_LT(std::chrono::steady_clock::now() - begin,
              std::chrono::seconds(1))
        << "round " << round;
    EXPECT_FALSE(loop.running());
  }
}

TEST(EventLoop, NoEventfdWakeupsWhileThePollWindowCoversTheGap) {
  if (common::SpinWait::window().count() == 0) {
    GTEST_SKIP() << "one usable CPU: the loop parks at once";
  }
  // Ping-pong: post, wait for the task, post the next at once. Each gap
  // is a few microseconds, well inside the poll window, so the loop
  // never parks between posts and no post writes the eventfd. A few
  // wakes are tolerated for rounds where this thread lost its CPU for
  // longer than the window on a loaded host.
  EventLoop loop("t.poll");
  loop.start();
  std::atomic<int> ran{0};
  loop.post([&ran] { ran.fetch_add(1); });
  ASSERT_TRUE(spin_until([&] { return ran.load() == 1; },
                         std::chrono::seconds(5)));
  const LoopStats before = loop.stats();
  constexpr int kRounds = 2000;
  for (int round = 2; round <= kRounds + 1; ++round) {
    loop.post([&ran] { ran.fetch_add(1); });
    ASSERT_TRUE(spin_until([&] { return ran.load() == round; },
                           std::chrono::seconds(5)));
  }
  const LoopStats after = loop.stats();
  loop.stop();
  EXPECT_LE(after.wakeups - before.wakeups, kRounds / 20u);
  EXPECT_LE(after.parks - before.parks, kRounds / 20u);
}

TEST(EventLoop, DispatchDelayRecordedWhetherParkedOrSpinning) {
  EventLoop loop("t.delay");
  loop.start();
  std::atomic<int> ran{0};
  auto post_and_wait = [&] {
    const int target = ran.load() + 1;
    loop.post([&ran] { ran.fetch_add(1); });
    ASSERT_TRUE(spin_until([&] { return ran.load() == target; },
                           std::chrono::seconds(5)));
  };
  // Parked: wait for the park announced after an event, then post; the
  // eventfd must wake the loop, and the event is timed like any other.
  // The event itself reads the park count: the loop cannot park while it
  // runs, so the next park is the one after it (read afterwards, the
  // count may already include that park, and none other would follow).
  std::atomic<std::uint64_t> parks{0};
  loop.post([&] {
    parks.store(loop.stats().parks);
    ran.fetch_add(1);
  });
  ASSERT_TRUE(spin_until([&] { return ran.load() == 1; },
                         std::chrono::seconds(5)));
  ASSERT_TRUE(spin_until([&] { return loop.stats().parks > parks.load(); },
                         std::chrono::seconds(5)));
  loop.reset_stats();
  const LoopStats parked = loop.stats();
  post_and_wait();
  EXPECT_GT(loop.stats().wakeups, parked.wakeups);
  EXPECT_EQ(loop.dispatch_delay().total_count(), 1u);
  EXPECT_EQ(loop.dispatched(), 1u);
  if (common::SpinWait::window().count() == 0) return;  // never spins
  // Spinning: post right after the last event ran, inside the poll
  // window; a round whose post consumed no eventfd wake met an awake
  // loop. Every round's event is timed.
  bool spun = false;
  for (int round = 0; round < 100 && !spun; ++round) {
    const std::uint64_t wakeups = loop.stats().wakeups;
    const std::uint64_t timed = loop.dispatch_delay().total_count();
    post_and_wait();
    EXPECT_EQ(loop.dispatch_delay().total_count(), timed + 1);
    spun = loop.stats().wakeups == wakeups;
  }
  EXPECT_TRUE(spun) << "no post met the loop inside its poll window";
}

TEST(ResponseProbe, MeasuresIdleLoopQuickly) {
  EventLoop loop;
  loop.start();
  ResponseProbe probe(loop, common::Millis{5});
  probe.start();
  common::precise_sleep(common::Millis{60});
  probe.stop();
  loop.wait_until_idle();
  EXPECT_GE(probe.latencies().total_count(), 5u);
  // An idle loop dispatches probes in well under 5ms.
  EXPECT_LT(probe.latencies().percentile(0.5), 5'000'000u);
}

TEST(OpenLoopDriver, AllRequestsComplete) {
  EventLoop loop;
  loop.start();
  OpenLoopDriver::Options opt;
  opt.count = 20;
  opt.rate_hz = 500.0;
  auto result = OpenLoopDriver::run(
      loop, opt,
      [](std::size_t, const CompletionToken& token) { token.complete(); });
  EXPECT_TRUE(result.all_completed);
  EXPECT_EQ(result.fired, 20u);
  EXPECT_EQ(result.completed, 20u);
  EXPECT_EQ(result.response_ms.count(), 20u);
}

TEST(OpenLoopDriver, AsynchronousCompletionIsMeasured) {
  EventLoop loop;
  loop.start();
  exec::WorkStealingExecutor pool("w", 2);
  OpenLoopDriver::Options opt;
  opt.count = 10;
  opt.rate_hz = 1000.0;
  auto result = OpenLoopDriver::run(
      loop, opt, [&](std::size_t, const CompletionToken& token) {
        pool.post([token] {
          common::precise_sleep(common::Millis{5});
          token.complete();
        });
      });
  EXPECT_TRUE(result.all_completed);
  // Response time includes the asynchronous 5ms tail.
  EXPECT_GE(result.response_ms.percentile(0.0), 4.0);
}

TEST(OpenLoopDriver, CompletionTokenIsIdempotent) {
  EventLoop loop;
  loop.start();
  OpenLoopDriver::Options opt;
  opt.count = 5;
  opt.rate_hz = 1000.0;
  auto result = OpenLoopDriver::run(
      loop, opt, [](std::size_t, const CompletionToken& token) {
        token.complete();
        token.complete();  // second call ignored
      });
  EXPECT_EQ(result.completed, 5u);
}

TEST(OpenLoopDriver, PoissonArrivalsStillCountEverything) {
  EventLoop loop;
  loop.start();
  OpenLoopDriver::Options opt;
  opt.count = 30;
  opt.rate_hz = 2000.0;
  opt.poisson = true;
  auto result = OpenLoopDriver::run(
      loop, opt,
      [](std::size_t, const CompletionToken& token) { token.complete(); });
  EXPECT_TRUE(result.all_completed);
  EXPECT_EQ(result.completed, 30u);
}

}  // namespace
}  // namespace evmp::event
