// Tests for the execution tracer and its event-loop/executor hooks.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/clock.hpp"
#include "common/sync.hpp"
#include "common/tracing.hpp"
#include "event/event_loop.hpp"
#include "executor/work_stealing_executor.hpp"

namespace evmp::common {
namespace {

class TracingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().clear();
    Tracer::instance().enable(true);
  }
  void TearDown() override {
    Tracer::instance().enable(false);
    Tracer::instance().clear();
  }
};

TEST_F(TracingTest, RecordsManualSpans) {
  const auto t0 = now();
  Tracer::instance().record("alpha", "test", t0, t0 + Millis{3});
  const auto spans = Tracer::instance().snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "alpha");
  EXPECT_EQ(spans[0].category, "test");
  EXPECT_NEAR(static_cast<double>(spans[0].duration_us), 3000.0, 100.0);
}

TEST_F(TracingTest, ScopedSpanMeasuresItsScope) {
  {
    ScopedSpan span("scoped", "test");
    precise_sleep(Millis{5});
  }
  const auto spans = Tracer::instance().snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_GE(spans[0].duration_us, 4500);
}

TEST_F(TracingTest, DisabledRecordsNothing) {
  Tracer::instance().enable(false);
  Tracer::instance().record("ghost", "test", now(), now());
  EXPECT_EQ(Tracer::instance().size(), 0u);
}

TEST_F(TracingTest, CapacityDropsAndCounts) {
  Tracer::instance().set_capacity(2);
  const auto t0 = now();
  for (int i = 0; i < 5; ++i) {
    Tracer::instance().record("x", "test", t0, t0);
  }
  EXPECT_EQ(Tracer::instance().size(), 2u);
  EXPECT_EQ(Tracer::instance().dropped(), 3u);
  Tracer::instance().set_capacity(1u << 20);
}

TEST_F(TracingTest, EventLoopDispatchIsTraced) {
  event::EventLoop loop("edt");
  loop.start();
  loop.invoke_and_wait([] { precise_sleep(Millis{2}); });
  loop.wait_until_idle();
  bool found = false;
  for (const auto& s : Tracer::instance().snapshot()) {
    if (s.name == "edt.dispatch" && s.category == "event") found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(TracingTest, ExecutorTasksAreTraced) {
  exec::WorkStealingExecutor pool("traced-pool", 2);
  CountdownLatch latch(3);
  for (int i = 0; i < 3; ++i) {
    pool.post([&] { latch.count_down(); });
  }
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{5}));
  pool.shutdown();
  int pool_spans = 0;
  for (const auto& s : Tracer::instance().snapshot()) {
    if (s.name == "traced-pool") ++pool_spans;
  }
  EXPECT_EQ(pool_spans, 3);
}

TEST_F(TracingTest, ChromeTraceExportIsWellFormedJson) {
  const auto t0 = now();
  Tracer::instance().record("needs \"escaping\"\\", "cat", t0,
                            t0 + Micros{10});
  const std::string path = "/tmp/evmp_trace_test.json";
  ASSERT_TRUE(Tracer::instance().write_chrome_trace(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\\\"escaping\\\"\\\\"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Balanced braces/brackets as a cheap well-formedness check.
  long depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST_F(TracingTest, ThreadIdsAreStablePerThread) {
  const auto id1 = Tracer::instance().current_thread_id();
  const auto id2 = Tracer::instance().current_thread_id();
  EXPECT_EQ(id1, id2);
  std::uint32_t other = 0;
  std::jthread t([&] { other = Tracer::instance().current_thread_id(); });
  t.join();
  EXPECT_NE(other, 0u);
  EXPECT_NE(other, id1);
}

}  // namespace
}  // namespace evmp::common
