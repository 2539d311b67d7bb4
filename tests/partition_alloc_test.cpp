// Heap allocations of the batch partitioner (federated/partition.h) and of
// FEDCONS around it (federated/fedcons_algorithm.h). The placement order,
// the bins, the density split, the sequential view and the LS workspace are
// per-thread scratch that is cleared rather than freed, so once a call has
// sized them, repeating it on the same thread allocates only what its
// result owns:
//   * partition_tasks: the outer assignment vector plus one vector per
//     non-empty bin, nothing on failure;
//   * fedcons_schedule: the clusters vector and one σ job vector per
//     cluster, plus on success the shared_assignment vector and one vector
//     per non-empty bin.
//
// The serve wire path (serve/protocol.h, serve/client.h) is pinned the same
// way: once a reused request, response or buffer has grown, parsing an
// admit by content handle or a release, framing a verdict response and the
// client's in-place response parse allocate nothing.
//
// This binary replaces the global operator new to count allocations, so it
// holds no other suite.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "fedcons/federated/fedcons_algorithm.h"
#include "fedcons/federated/partition.h"
#include "fedcons/gen/presets.h"
#include "fedcons/serve/client.h"
#include "fedcons/serve/protocol.h"
#include "fedcons/util/rng.h"

namespace {
std::size_t g_allocations = 0;  // this suite runs on one thread
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace fedcons {
namespace {

constexpr int kProcessors = 8;

/// A system from the benchmark's batch campaign: the E3 "mixed" preset at
/// normalized utilization `level` on m = 8.
TaskSystem campaign_system(std::uint64_t seed, double level) {
  TaskSetParams p = find_preset("mixed")->params;
  p.total_utilization = level * kProcessors;
  p.utilization_cap = kProcessors;
  Rng rng(seed);
  return generate_task_system(rng, p);
}

/// The low-density tasks of a campaign system.
std::vector<SporadicTask> campaign_low_tasks(std::uint64_t seed, double level) {
  const TaskSystem system = campaign_system(seed, level);
  std::vector<SporadicTask> out;
  for (const TaskId i : system.low_density_tasks()) {
    out.push_back(system[i].to_sequential());
  }
  return out;
}

std::size_t result_allocations(const PartitionResult& r) {
  if (!r.success) return 0;
  std::size_t n = 1;  // the outer assignment vector
  for (const auto& bin : r.assignment) n += bin.empty() ? 0 : 1;
  return n;
}

TEST(PartitionAllocation, RepeatCallAllocatesOnlyItsResult) {
  int accepted = 0;
  int rejected = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const double level : {0.3, 0.6, 0.9}) {
      const std::vector<SporadicTask> tasks = campaign_low_tasks(seed, level);
      for (const int m : {kProcessors, 3}) {
        const PartitionResult first = partition_tasks(tasks, m);
        const std::size_t before = g_allocations;
        const PartitionResult second = partition_tasks(tasks, m);
        const std::size_t allocations = g_allocations - before;
        SCOPED_TRACE("seed " + std::to_string(seed) + " level " +
                     std::to_string(level) + " m " + std::to_string(m) +
                     " tasks " + std::to_string(tasks.size()));
        ASSERT_EQ(second.success, first.success);
        EXPECT_EQ(second.assignment, first.assignment);
        EXPECT_EQ(allocations, result_allocations(second));
        (second.success ? accepted : rejected) += 1;
      }
    }
  }
  // Both result shapes were exercised.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

std::size_t result_allocations(const FedconsResult& r) {
  std::size_t n = r.clusters.capacity() > 0 ? 1 : 0;
  for (const ClusterAssignment& c : r.clusters) {
    n += c.sigma.num_jobs() > 0 ? 1 : 0;
  }
  if (!r.success) return n;
  n += r.shared_assignment.capacity() > 0 ? 1 : 0;
  for (const auto& bin : r.shared_assignment) n += bin.empty() ? 0 : 1;
  return n;
}

TEST(FedconsAllocation, RepeatCallAllocatesOnlyItsResult) {
  int accepted = 0;
  int rejected_high = 0;
  int rejected_partition = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const double level : {0.1, 0.3, 0.5, 0.7, 0.9}) {
      const TaskSystem system = campaign_system(seed, level);
      for (const int m : {kProcessors, 3}) {
        const FedconsResult first = fedcons_schedule(system, m);
        const std::size_t before = g_allocations;
        const FedconsResult second = fedcons_schedule(system, m);
        const std::size_t allocations = g_allocations - before;
        SCOPED_TRACE("seed " + std::to_string(seed) + " level " +
                     std::to_string(level) + " m " + std::to_string(m) +
                     " tasks " + std::to_string(system.size()));
        ASSERT_EQ(second.success, first.success);
        EXPECT_EQ(second.failure, first.failure);
        EXPECT_EQ(second.failed_task, first.failed_task);
        ASSERT_EQ(second.clusters.size(), first.clusters.size());
        for (std::size_t k = 0; k < first.clusters.size(); ++k) {
          EXPECT_EQ(second.clusters[k].task, first.clusters[k].task);
          EXPECT_EQ(second.clusters[k].num_processors,
                    first.clusters[k].num_processors);
        }
        EXPECT_EQ(second.shared_assignment, first.shared_assignment);
        EXPECT_EQ(allocations, result_allocations(second));
        switch (second.failure) {
          case FedconsFailure::kNone: ++accepted; break;
          case FedconsFailure::kHighDensityPhase: ++rejected_high; break;
          case FedconsFailure::kPartitionPhase: ++rejected_partition; break;
        }
      }
    }
  }
  // Every result shape was exercised.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected_high, 0);
  EXPECT_GT(rejected_partition, 0);
}

// ---- the serve wire path -----------------------------------------------

/// Allocations made by ten runs of `body` after three warm-up runs.
template <typename F>
std::size_t steady_allocations(F&& body) {
  for (int i = 0; i < 3; ++i) body();
  const std::size_t before = g_allocations;
  for (int i = 0; i < 10; ++i) body();
  return g_allocations - before;
}

/// The requests serve-low sends: an admit by content handle and a release.
std::vector<serve::ServeRequest> hot_requests() {
  serve::ServeRequest admit;
  admit.op = serve::ServeOp::kAdmit;
  admit.seq = 1234567;
  admit.session = 3;
  admit.has_content = true;
  admit.content = 17;
  serve::ServeRequest release;
  release.op = serve::ServeOp::kRelease;
  release.seq = 1234568;
  release.session = 3;
  release.release_ids = {4242};
  std::vector<serve::ServeRequest> out;
  for (const bool stages : {false, true}) {
    for (serve::ServeRequest req : {admit, release}) {
      req.echo_stages = stages;
      out.push_back(req);
    }
  }
  return out;
}

serve::ServeResponse verdict_response(std::uint64_t seq, bool stages) {
  serve::ServeResponse resp;
  resp.seq = seq;
  resp.has_verdict = true;
  resp.applied = true;
  resp.schedulable = true;
  resp.reject = "none";
  resp.task_ids = {seq % 1000 + 1000};
  resp.residents = 4;
  resp.has_stages = stages;
  resp.stage_queue_us = 3;
  resp.stage_handle_us = 1;
  return resp;
}

TEST(ServeWireAllocation, InPlaceRequestParseAllocatesNothing) {
  for (const serve::ServeRequest& req : hot_requests()) {
    const std::string payload = serve::encode_serve_request(req);
    serve::ServeRequest out;
    const std::size_t allocations = steady_allocations(
        [&] { serve::parse_serve_request(std::string_view(payload), out); });
    EXPECT_EQ(allocations, 0u) << payload;
    EXPECT_EQ(serve::encode_serve_request(out), payload);
  }
}

TEST(ServeWireAllocation, ResponseFrameAppendsWithoutAllocating) {
  for (const bool stages : {false, true}) {
    const serve::ServeResponse resp = verdict_response(99, stages);
    std::string out;
    const std::size_t allocations = steady_allocations([&] {
      out.clear();
      serve::append_serve_response_frame(out, resp);
    });
    EXPECT_EQ(allocations, 0u);
    EXPECT_EQ(out,
              serve::encode_frame(serve::encode_serve_response(resp)));
  }
}

TEST(ServeWireAllocation, ClientInPlaceResponseParseAllocatesNothing) {
  // A real ServeClient on a socket this test listens on: one write queues
  // every frame, the client's first recv() reads them all, and try_recv()
  // then parses each buffered frame into one reused response. Every seq
  // has the same number of digits, so the warm-up frames are as long as
  // the rest.
  const std::string path = ::testing::TempDir() + "/wire_alloc_" +
                           std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  serve::ServeClient client = serve::ServeClient::connect_unix(path);
  const int server = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(server, 0);

  constexpr std::uint64_t kFirstSeq = 1'000'000;
  constexpr std::uint64_t kFrames = 64;
  std::string wire;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    serve::append_serve_response_frame(
        wire, verdict_response(kFirstSeq + i, i % 2 == 1));
  }
  ASSERT_EQ(::send(server, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));

  const serve::ServeResponse first = client.recv();
  EXPECT_EQ(first.seq, kFirstSeq);
  serve::ServeResponse out;
  constexpr std::uint64_t kWarmUp = 4;  // buffers grow to the frame size
  for (std::uint64_t i = 1; i <= kWarmUp; ++i) {
    ASSERT_TRUE(client.try_recv(out));
    EXPECT_EQ(out.seq, kFirstSeq + i);
  }
  const std::size_t before = g_allocations;
  std::uint64_t next_seq = kFirstSeq + kWarmUp + 1;
  bool in_order = true;
  while (client.try_recv(out)) {
    in_order = in_order && out.seq == next_seq && out.has_verdict &&
               out.task_ids.size() == 1;
    ++next_seq;
  }
  const std::size_t allocations = g_allocations - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_TRUE(in_order);
  EXPECT_EQ(next_seq, kFirstSeq + kFrames);
  ::close(server);
  ::close(listener);
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace fedcons
