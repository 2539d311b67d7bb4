// AdmissionSession end to end: event semantics (admission control, release
// anomalies, swap atomicity), trace round-trips, memo visibility, the
// differential fuzz harness itself, and replay of the pinned online corpus.
#include "fedcons/online/admission_session.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fedcons/conform/online_check.h"
#include "fedcons/online/trace.h"
#include "fedcons/util/check.h"
#include "fedcons/util/parse_error.h"

namespace fedcons {
namespace {

DagTask unit_task(Time wcet, Time deadline, Time period,
                  const std::string& name = {}) {
  return DagTask(DagBuilder{}.vertex(wcet).build(), deadline, period, name);
}

// Four parallel WCET-10 vertices, D = T = 20: density 2, μ = 2.
DagTask high_task() {
  return DagTask(DagBuilder{}.vertices({10, 10, 10, 10}).build(), 20, 20);
}

SharedTask shared(DagTask task) {
  return std::make_shared<const DagTask>(std::move(task));
}

std::vector<SessionTaskId> ids_of(const AdmittedIds& ids) {
  return std::vector<SessionTaskId>(ids.begin(), ids.end());
}

TEST(AdmissionSession, AdmitAssignsSequentialIdsEvenOnReject) {
  AdmissionSession::Config cfg;
  cfg.processors = 2;
  AdmissionSession session(cfg);
  const EventOutcome a = session.admit(unit_task(10, 64, 64));
  ASSERT_TRUE(a.applied);
  EXPECT_EQ(ids_of(a.admitted_ids), (std::vector<SessionTaskId>{0}));

  // μ = 2 would consume the whole machine with a resident low task: the
  // shared pool would shrink to 0 bins and the low task fits nowhere.
  const EventOutcome rejected = session.admit(high_task());
  EXPECT_FALSE(rejected.applied);
  EXPECT_EQ(rejected.reject_reason, FedconsFailure::kPartitionPhase);
  EXPECT_TRUE(session.verdict().success);  // state untouched
  EXPECT_EQ(session.num_residents(), 1u);

  // The rejected admit still consumed id 1: the next admit gets id 2.
  const EventOutcome b = session.admit(unit_task(1, 64, 64));
  ASSERT_TRUE(b.applied);
  EXPECT_EQ(ids_of(b.admitted_ids), (std::vector<SessionTaskId>{2}));
}

TEST(AdmissionSession, HighDensityPhaseOneReject) {
  AdmissionSession::Config cfg;
  cfg.processors = 1;  // μ = 2 > m
  AdmissionSession session(cfg);
  const EventOutcome out = session.admit(high_task());
  EXPECT_FALSE(out.applied);
  EXPECT_EQ(out.reject_reason, FedconsFailure::kHighDensityPhase);
  ASSERT_TRUE(out.failed_task.has_value());
  EXPECT_EQ(*out.failed_task, 0u);
  EXPECT_EQ(session.num_residents(), 0u);
}

TEST(AdmissionSession, ReleaseUnknownIdThrows) {
  AdmissionSession session(AdmissionSession::Config{});
  EXPECT_THROW((void)session.release(0), ContractViolation);
}

TEST(AdmissionSession, SwapIsAllOrNothing) {
  AdmissionSession::Config cfg;
  cfg.processors = 2;
  AdmissionSession session(cfg);
  ASSERT_TRUE(session.admit(unit_task(40, 64, 64)).applied);  // id 0
  ASSERT_TRUE(session.admit(unit_task(40, 64, 64)).applied);  // id 1
  const SessionVerdict before = session.verdict();

  // Infeasible batch: releases id 0 but admits two tasks that cannot both
  // land next to id 1. Nothing may change — including id 0 staying resident.
  AdmissionSession::SwapBatch bad;
  bad.release_ids = {0};
  bad.admits = {shared(unit_task(60, 64, 64)),
                shared(unit_task(60, 64, 64))};
  const EventOutcome failed = session.swap(bad);
  EXPECT_FALSE(failed.applied);
  EXPECT_TRUE(failed.admitted_ids.empty());
  EXPECT_TRUE(session.contains(0));
  EXPECT_EQ(session.num_residents(), 2u);
  EXPECT_EQ(session.verdict().success, before.success);

  // The failed swap still consumed ids 2 and 3 (deterministic id stream).
  AdmissionSession::SwapBatch good;
  good.release_ids = {0, 1};
  good.admits = {shared(unit_task(30, 64, 64))};
  const EventOutcome applied = session.swap(good);
  ASSERT_TRUE(applied.applied);
  EXPECT_EQ(ids_of(applied.admitted_ids), (std::vector<SessionTaskId>{4}));
  EXPECT_FALSE(session.contains(0));
  EXPECT_FALSE(session.contains(1));
  EXPECT_TRUE(session.contains(4));
}

TEST(AdmissionSession, SwapWithUnknownReleaseThrowsBeforeMutating) {
  AdmissionSession session(AdmissionSession::Config{});
  ASSERT_TRUE(session.admit(unit_task(1, 64, 64)).applied);
  AdmissionSession::SwapBatch batch;
  batch.release_ids = {0, 99};
  EXPECT_THROW((void)session.swap(batch), ContractViolation);
  EXPECT_TRUE(session.contains(0));
}

TEST(AdmissionSession, MemoHitOnRepeatedContent) {
  AdmissionSession::Config cfg;
  cfg.processors = 6;
  AdmissionSession session(cfg);
  const EventOutcome first = session.admit(high_task());
  ASSERT_TRUE(first.applied);
  EXPECT_FALSE(first.memo_hit);
  const EventOutcome second = session.admit(high_task());
  ASSERT_TRUE(second.applied);
  EXPECT_TRUE(second.memo_hit);
  EXPECT_TRUE(session.from_memo(second.admitted_ids[0]));
  EXPECT_FALSE(session.from_memo(first.admitted_ids[0]));
  const MinprocsMemoStats stats = session.memo_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  // Both residents report the same scan trajectory (the hit replayed it).
  const MinprocsProvenance* a = session.scan_of(first.admitted_ids[0]);
  const MinprocsProvenance* b = session.scan_of(second.admitted_ids[0]);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->chosen_mu, b->chosen_mu);
  ASSERT_EQ(a->probes.size(), b->probes.size());
}

// The constructed first-fit release anomaly (see tests/online_corpus/):
// releasing a task can leave the remaining residents unschedulable; the
// session reports it, further admits are rejected, and a second release
// that repacks feasibly recovers.
TEST(AdmissionSession, ReleaseAnomalyAndRecovery) {
  const std::vector<Time> sizes = {25, 10, 41, 42, 36, 17, 11, 28, 21, 22};
  AdmissionSession::Config cfg;
  cfg.processors = 4;
  AdmissionSession session(cfg);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    ASSERT_TRUE(session.admit(unit_task(sizes[i], 64, 64)).applied) << i;
  }
  ASSERT_TRUE(session.verdict().success);

  const EventOutcome release = session.release(1);  // the WCET-10 task
  EXPECT_TRUE(release.applied);  // departures always apply...
  EXPECT_FALSE(release.schedulable);  // ...even into a failed state
  const SessionVerdict failed = session.verdict();
  EXPECT_FALSE(failed.success);
  EXPECT_EQ(failed.failure, FedconsFailure::kPartitionPhase);
  ASSERT_TRUE(failed.failed_task.has_value());

  // Admission control holds in the failed state: even a trivial task is
  // rejected because the system as a whole is still unschedulable.
  const EventOutcome tiny = session.admit(unit_task(1, 64, 64));
  EXPECT_FALSE(tiny.applied);

  // Releasing the WCET-36 task lets first-fit repack the rest feasibly.
  const EventOutcome recover = session.release(4);
  EXPECT_TRUE(recover.applied);
  EXPECT_TRUE(recover.schedulable);
  EXPECT_TRUE(session.verdict().success);
}

TEST(OnlineTrace, RoundTripThroughTextForm) {
  OnlineTrace trace;
  trace.processors = 3;
  OnlineEvent admit;
  admit.kind = OnlineEvent::Kind::kAdmit;
  admit.admits.push_back(unit_task(5, 40, 50, "round trip"));
  trace.events.push_back(admit);
  OnlineEvent swap;
  swap.kind = OnlineEvent::Kind::kSwap;
  swap.release_ids = {0};
  swap.admits = {unit_task(7, 30, 30), high_task()};
  trace.events.push_back(swap);
  OnlineEvent release;
  release.kind = OnlineEvent::Kind::kRelease;
  release.release_ids = {2};
  trace.events.push_back(release);

  const std::string text = write_online_trace(trace);
  const OnlineTrace parsed = parse_online_trace(text);
  EXPECT_EQ(parsed.processors, 3);
  ASSERT_EQ(parsed.events.size(), 3u);
  EXPECT_EQ(parsed.events[0].kind, OnlineEvent::Kind::kAdmit);
  EXPECT_EQ(parsed.events[1].kind, OnlineEvent::Kind::kSwap);
  EXPECT_EQ(parsed.events[1].release_ids, (std::vector<SessionTaskId>{0}));
  EXPECT_EQ(parsed.events[1].admits.size(), 2u);
  EXPECT_EQ(parsed.events[2].release_ids, (std::vector<SessionTaskId>{2}));
  // Serialization is canonical: a second round trip is byte-stable.
  EXPECT_EQ(write_online_trace(parsed), text);
}

TEST(OnlineTrace, ParserRejectsMalformedInput) {
  EXPECT_THROW((void)parse_online_trace(""), ParseError);
  EXPECT_THROW((void)parse_online_trace("{\"format\": \"wrong\"}\n"),
               ParseError);
  const std::string header =
      "{\"format\": \"fedcons-online-trace\", \"version\": 1, "
      "\"processors\": 2}\n";
  EXPECT_THROW((void)parse_online_trace(header + "{\"event\": \"bogus\"}\n"),
               ParseError);
  EXPECT_THROW((void)parse_online_trace(
                   header + "{\"event\": \"release\", \"id\": \"x\"}\n"),
               ParseError);
  EXPECT_NO_THROW((void)parse_online_trace(header));
  // The processor count must fit an int: 2^32 + 1 is not read as m = 1.
  for (const char* m : {"0", "-1", "2147483648", "4294967297"}) {
    EXPECT_THROW((void)parse_online_trace(
                     std::string("{\"format\": \"fedcons-online-trace\", "
                                 "\"version\": 1, \"processors\": ") +
                     m + "}\n"),
                 ParseError)
        << "processors " << m;
  }
  EXPECT_EQ(parse_online_trace("{\"format\": \"fedcons-online-trace\", "
                               "\"version\": 1, \"processors\": 2147483647}\n")
                .processors,
            2147483647);
}

// A short in-process run of the differential fuzz: zero divergences, and
// bit-identical reports across thread counts (the determinism contract the
// 500-trial `fedcons_conform --online` acceptance run relies on).
TEST(OnlineFuzz, ShortRunConformsAndIsThreadCountInvariant) {
  OnlineFuzzConfig config;
  config.trials = 40;
  config.events_per_trial = 25;
  config.master_seed = 2026;
  config.num_threads = 1;
  const OnlineFuzzReport serial = run_online_fuzz(config);
  EXPECT_TRUE(serial.ok()) << serial.divergences.front().detail;
  EXPECT_EQ(serial.events, 40u * 25u);
  EXPECT_GT(serial.memo_hits, 0u);

  config.num_threads = 3;
  const OnlineFuzzReport threaded = run_online_fuzz(config);
  EXPECT_TRUE(threaded.ok());
  EXPECT_EQ(threaded.applied, serial.applied);
  EXPECT_EQ(threaded.rejected, serial.rejected);
  EXPECT_EQ(threaded.memo_hits, serial.memo_hits);
  EXPECT_EQ(threaded.memo_misses, serial.memo_misses);
  EXPECT_EQ(threaded.bins_revalidated, serial.bins_revalidated);
  EXPECT_EQ(online_fuzz_report_json(threaded),
            online_fuzz_report_json(serial));
}

// Every pinned trace in tests/online_corpus/ must parse and conform: the
// incremental engine equals the batch analysis after each of its events.
TEST(OnlineCorpus, PinnedTracesConform) {
  const std::filesystem::path dir(ONLINE_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::exists(dir)) << dir;
  int replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.is_open()) << entry.path();
    std::stringstream buffer;
    buffer << in.rdbuf();
    const OnlineTrace trace = parse_online_trace(buffer.str());
    EXPECT_GT(trace.events.size(), 0u) << entry.path();
    const auto divergence = check_online_trace(trace);
    EXPECT_FALSE(divergence.has_value())
        << entry.path() << ": " << *divergence;
    ++replayed;
  }
  EXPECT_GE(replayed, 1) << "corpus must never be empty";
}

// The corpus anomaly exhibit replayed through the driver: all eleven events
// apply and the final state is the (legitimate) failed partition.
TEST(OnlineCorpus, ReleaseAnomalyExhibitShape) {
  const std::filesystem::path path =
      std::filesystem::path(ONLINE_CORPUS_DIR) / "release-anomaly.trace.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const OnlineTrace trace = parse_online_trace(buffer.str());
  AdmissionSession::Config cfg;
  cfg.processors = trace.processors;
  AdmissionSession session(cfg);
  const OnlineReplayResult result =
      replay_online_trace(trace, session, nullptr);
  EXPECT_EQ(result.events, 11u);
  EXPECT_EQ(result.applied, 11u);
  EXPECT_EQ(result.rejected, 0u);
  EXPECT_FALSE(result.final_schedulable);
  EXPECT_FALSE(session.verdict().success);
}

}  // namespace
}  // namespace fedcons
