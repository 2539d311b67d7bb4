// Tests for the span tracer: the disabled-path contract, Chrome trace-event
// schema, category coverage across the instrumented layers, and thread
// safety of concurrent recording.
#include "fedcons/obs/span_tracer.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fedcons/conform/harness.h"
#include "fedcons/conform/oracle.h"
#include "fedcons/core/builders.h"
#include "fedcons/federated/fedcons_algorithm.h"
#include "fedcons/util/perf_counters.h"
#include "test_json.h"

namespace fedcons {
namespace {

/// Every suite toggles the global flag; restore the disabled default so test
/// order cannot leak tracing into unrelated suites.
class SpanTracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_tracing_enabled(false);
    obs::reset_trace();
  }
  void TearDown() override {
    obs::set_tracing_enabled(false);
    obs::reset_trace();
  }
};

DagTask simple_task(Time wcet, Time deadline, Time period) {
  DagBuilder g;
  g.add_vertex(wcet);
  return DagTask(g.build(), deadline, period);
}

/// width unit jobs with deadline 2: δ = width·T/(2·T) — high-density.
DagTask wide_task(int width, Time deadline, Time period) {
  DagBuilder g;
  for (int i = 0; i < width; ++i) g.add_vertex(1);
  return DagTask(g.build(), deadline, period);
}

TaskSystem mixed_system() {
  TaskSystem sys;
  sys.add(wide_task(8, 2, 4));     // high-density: exercises MINPROCS
  sys.add(make_paper_example_task());  // low-density
  sys.add(simple_task(2, 10, 20));     // low-density
  return sys;
}

TEST_F(SpanTracerTest, DisabledPathRecordsNothing) {
  { FEDCONS_SPAN("test", "invisible"); }
  { FEDCONS_SPAN_V("test", "invisible_v", "k", 7); }
  (void)fedcons_schedule(mixed_system(), 5);
  EXPECT_TRUE(obs::collect_trace_events().empty());
}

TEST_F(SpanTracerTest, GuardLatchesDisabledStateAtConstruction) {
  {
    FEDCONS_SPAN("test", "latched");
    obs::set_tracing_enabled(true);  // mid-span enable: guard stays inert
  }
  EXPECT_TRUE(obs::collect_trace_events().empty());
}

TEST_F(SpanTracerTest, RecordsCompleteEventsWhenEnabled) {
  obs::set_tracing_enabled(true);
  { FEDCONS_SPAN_V("cat_a", "span_a", "key_a", 42); }
  { FEDCONS_SPAN("cat_b", "span_b"); }
  obs::set_tracing_enabled(false);
  auto events = obs::collect_trace_events();
  ASSERT_EQ(events.size(), 2u);
  // Same thread → sorted by timestamp: span_a closed first.
  EXPECT_STREQ(events[0].name, "span_a");
  EXPECT_STREQ(events[0].cat, "cat_a");
  ASSERT_NE(events[0].arg_key, nullptr);
  EXPECT_STREQ(events[0].arg_key, "key_a");
  EXPECT_EQ(events[0].arg_val, 42);
  EXPECT_STREQ(events[1].name, "span_b");
  EXPECT_EQ(events[1].arg_key, nullptr);
  for (const auto& e : events) {
    EXPECT_GE(e.ts_ns, 0) << e.name;
    EXPECT_GE(e.dur_ns, 0) << e.name;
  }
}

TEST_F(SpanTracerTest, ResetDropsEvents) {
  obs::set_tracing_enabled(true);
  { FEDCONS_SPAN("test", "dropped"); }
  obs::reset_trace();
  { FEDCONS_SPAN("test", "kept"); }
  obs::set_tracing_enabled(false);
  auto events = obs::collect_trace_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "kept");
}

TEST_F(SpanTracerTest, ChromeTraceJsonSchemaAndCategoryCoverage) {
  obs::set_tracing_enabled(true);
  // Drive every instrumented layer: fedcons_schedule covers the fedcons,
  // minprocs, and partition categories; run_conformance covers the engine
  // (BatchRunner trial) and conform (oracle replay) categories.
  (void)fedcons_schedule(mixed_system(), 5);
  ConformConfig config = default_conform_config();
  config.trials = 2;
  config.num_threads = 2;
  config.m = 4;
  config.sim.horizon = 1000;
  auto entries = builtin_conformance_entries();
  (void)run_conformance(config, entries);
  obs::set_tracing_enabled(false);

  std::ostringstream os;
  obs::write_chrome_trace(os);
  auto doc = testjson::parse(os.str());

  ASSERT_TRUE(doc->has("traceEvents"));
  const auto& events = doc->at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_FALSE(events.array.empty());

  std::set<std::pair<std::string, std::string>> seen;  // (cat, name)
  for (const auto& ev : events.array) {
    // Chrome trace-event schema: complete events with microsecond times.
    EXPECT_EQ(ev->at("ph").string, "X");
    EXPECT_TRUE(ev->at("pid").is_number());
    EXPECT_TRUE(ev->at("tid").is_number());
    EXPECT_TRUE(ev->at("name").is_string());
    EXPECT_TRUE(ev->at("cat").is_string());
    EXPECT_TRUE(ev->at("ts").is_number());
    EXPECT_TRUE(ev->at("dur").is_number());
    EXPECT_GE(ev->at("ts").number, 0.0) << ev->at("name").string;
    EXPECT_GE(ev->at("dur").number, 0.0) << ev->at("name").string;
    seen.insert({ev->at("cat").string, ev->at("name").string});
  }
  for (const auto& [cat, name] :
       std::vector<std::pair<std::string, std::string>>{
           {"fedcons", "schedule"},
           {"minprocs", "scan"},
           {"minprocs", "ls_probe"},
           {"partition", "partition_tasks"},
           {"partition", "place"},
           {"engine", "trial"},
           {"conform", "oracle"}}) {
    EXPECT_TRUE(seen.count({cat, name}))
        << "missing span " << cat << "/" << name;
  }
}

TEST_F(SpanTracerTest, ConcurrentRecordingKeepsThreadsApart) {
  obs::set_tracing_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kSpans = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpans; ++i) {
        FEDCONS_SPAN_V("test", "worker_span", "i", i);
      }
    });
  }
  for (auto& th : threads) th.join();
  obs::set_tracing_enabled(false);

  auto events = obs::collect_trace_events();
  // This thread recorded nothing, so exactly the workers' spans are present,
  // grouped by tid and time-ordered within each tid.
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads * kSpans));
  std::size_t group_start = 0;
  std::set<std::uint32_t> tids;
  for (std::size_t i = 0; i < events.size(); ++i) {
    tids.insert(events[i].tid);
    if (i > group_start && events[i].tid == events[i - 1].tid) {
      EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
    } else if (i > 0 && events[i].tid != events[i - 1].tid) {
      group_start = i;
    }
  }
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

TEST_F(SpanTracerTest, TracingDoesNotPerturbVerdictOrCounters) {
  const TaskSystem sys = mixed_system();

  const PerfCounters before_off = perf_counters();
  const FedconsResult off = fedcons_schedule(sys, 5);
  const PerfCounters delta_off = perf_counters() - before_off;

  obs::set_tracing_enabled(true);
  const PerfCounters before_on = perf_counters();
  const FedconsResult on = fedcons_schedule(sys, 5);
  const PerfCounters delta_on = perf_counters() - before_on;
  obs::set_tracing_enabled(false);

  EXPECT_EQ(off.success, on.success);
  EXPECT_EQ(off.failure, on.failure);
  EXPECT_EQ(off.shared_processors, on.shared_processors);
  EXPECT_EQ(delta_off.ls_invocations, delta_on.ls_invocations);
  EXPECT_EQ(delta_off.minprocs_scan_iterations,
            delta_on.minprocs_scan_iterations);
  EXPECT_EQ(delta_off.dbf_star_evaluations, delta_on.dbf_star_evaluations);
  EXPECT_EQ(delta_off.ls_probes_pruned, delta_on.ls_probes_pruned);
}

}  // namespace
}  // namespace fedcons
