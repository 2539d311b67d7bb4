#include "fedcons/listsched/ls_workspace.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "fedcons/listsched/list_scheduler.h"
#include "fedcons/util/check.h"
#include "fedcons/util/perf_counters.h"

namespace fedcons {

LsWorkspace& thread_ls_workspace() noexcept {
  thread_local LsWorkspace workspace;
  return workspace;
}

std::uint64_t& workspace_reuse_count() noexcept {
  thread_local std::uint64_t reuses = 0;
  return reuses;
}

void ls_prepare(LsWorkspace& ws, const Dag& dag, ListPolicy policy,
                bool use_reduced_graph) {
  FEDCONS_EXPECTS(!dag.empty());
  const std::size_t n = dag.num_vertices();
  ws.reduced = use_reduced_graph;
  // Count in-degrees over the edge set the runs walk, so remaining_preds
  // hits zero exactly when that (possibly reduced) CSR's decrements do.
  ws.init_preds.assign(n, 0);
  for (const VertexId s : dag.successor_csr(use_reduced_graph).targets) {
    ++ws.init_preds[s];
  }

  ws.ready_pos.resize(n);
  ws.pos_to_v.resize(n);
  if (policy == ListPolicy::kVertexOrder) {
    // All primary keys equal: the (key, id) order is the id order.
    for (std::size_t i = 0; i < n; ++i) {
      ws.ready_pos[i] = static_cast<std::uint32_t>(i);
      ws.pos_to_v[i] = static_cast<std::uint32_t>(i);
    }
    return;
  }
  ws.keys.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = static_cast<VertexId>(i);
    switch (policy) {
      case ListPolicy::kVertexOrder: ws.keys[i] = 0; break;
      case ListPolicy::kCriticalPath: ws.keys[i] = -dag.bottom_level(v); break;
      case ListPolicy::kLongestWcet: ws.keys[i] = -dag.wcet(v); break;
    }
  }
  // Priority position = index in the (key, id) sort — the exact order the
  // reference comparator pops in, collapsed to a dense integer so the ready
  // queue can be a bitset.
  std::iota(ws.pos_to_v.begin(), ws.pos_to_v.end(), 0u);
  const Time* keys = ws.keys.data();
  std::sort(ws.pos_to_v.begin(), ws.pos_to_v.end(),
            [keys](std::uint32_t a, std::uint32_t b) {
              if (keys[a] != keys[b]) return keys[a] < keys[b];
              return a < b;
            });
  for (std::size_t p = 0; p < n; ++p) {
    ws.ready_pos[ws.pos_to_v[p]] = static_cast<std::uint32_t>(p);
  }
}

namespace {

using RunningJob = LsWorkspace::RunningJob;

// (finish, vertex) order. The three tests are combined as integers so that
// nothing short-circuits: heap keys are effectively random, and a branch
// here would mispredict about half the time.
inline bool earlier(const RunningJob& a, const RunningJob& b) noexcept {
  const int before = a.finish < b.finish;
  const int tie = a.finish == b.finish;
  const int lower = a.vertex < b.vertex;
  return (before | (tie & lower)) != 0;
}

inline void heap_push(RunningJob* heap, std::size_t& size,
                      RunningJob job) noexcept {
  std::size_t hole = size++;
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!earlier(job, heap[parent])) break;
    heap[hole] = heap[parent];
    hole = parent;
  }
  heap[hole] = job;
}

// Remove the root: walk the hole down to a leaf along the earlier child,
// then sift the former last entry up from there (it usually belongs near
// the bottom, so this costs one comparison per level instead of two).
inline void heap_pop(RunningJob* heap, std::size_t& size) noexcept {
  const RunningJob last = heap[--size];
  std::size_t hole = 0;
  std::size_t child = 1;
  for (; child + 1 < size; child = 2 * hole + 1) {
    child += static_cast<std::size_t>(earlier(heap[child + 1], heap[child]));
    heap[hole] = heap[child];
    hole = child;
  }
  if (child < size) {
    heap[hole] = heap[child];
    hole = child;
  }
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!earlier(last, heap[parent])) break;
    heap[hole] = heap[parent];
    hole = parent;
  }
  heap[hole] = last;
}

// The LS main loop. Everything is accessed through local raw pointers: the
// compiler cannot prove the bitset stores don't alias the workspace's vector
// control blocks, so member access would reload every data pointer each
// iteration of the hot loops.
Time run(LsWorkspace& ws, Dag::SuccessorCsr csr, const Time* exec,
         std::size_t n, std::size_t procs) {
  const std::uint32_t* succ_off = csr.offsets.data();
  const VertexId* succ = csr.targets.data();
  const std::uint32_t* pos_to_v = ws.pos_to_v.data();
  const std::uint32_t* ready_pos = ws.ready_pos.data();
  std::uint32_t* rp = ws.remaining_preds.data();
  std::uint64_t* ready_mask = ws.ready_mask.data();
  std::uint64_t* free_mask = ws.free_mask.data();
  RunningJob* heap = ws.running.data();
  ScheduledJob* jobs = ws.jobs.data();

  std::size_t free_count = procs;
  std::size_t free_lo = 0;    // lowest free_mask word that may have a set bit
  std::size_t ready_count = 0;
  std::size_t ready_lo = 0;   // lowest ready_mask word that may have a set bit
  std::size_t running = 0;    // heap size
  const auto push_ready = [&](std::uint32_t p) {
    ready_mask[p / 64] |= std::uint64_t{1} << (p % 64);
    ++ready_count;
    if (p / 64 < ready_lo) ready_lo = p / 64;
  };
  for (std::size_t v = 0; v < n; ++v) {
    if (rp[v] == 0) push_ready(ready_pos[v]);
  }

  Time now = 0;
  Time makespan = 0;
  std::size_t scheduled = 0;
  for (;;) {
    // Dispatch: work-conserving — pair the k-th smallest ready position with
    // the k-th lowest idle processor index.
    while (free_count > 0 && ready_count > 0) {
      while (ready_mask[ready_lo] == 0) ++ready_lo;
      const std::uint64_t rw = ready_mask[ready_lo];
      const auto pos = static_cast<std::uint32_t>(ready_lo * 64) +
                       static_cast<std::uint32_t>(std::countr_zero(rw));
      ready_mask[ready_lo] = rw & (rw - 1);
      --ready_count;
      const std::uint32_t v = pos_to_v[pos];
      while (free_mask[free_lo] == 0) ++free_lo;
      const std::uint64_t fw = free_mask[free_lo];
      const int proc = static_cast<int>(free_lo * 64) + std::countr_zero(fw);
      free_mask[free_lo] = fw & (fw - 1);
      --free_count;
      const Time finish = checked_add(now, exec[v]);
      jobs[scheduled++] = ScheduledJob{v, proc, now, finish};
      heap_push(heap, running, RunningJob{finish, v, proc});
      if (finish > makespan) makespan = finish;
    }
    if (scheduled == n) return makespan;
    FEDCONS_ASSERT(running > 0);  // else: cycle (excluded)
    // Complete every job finishing at the earliest instant.
    now = heap[0].finish;
    do {
      const RunningJob done = heap[0];
      heap_pop(heap, running);
      const auto proc = static_cast<std::size_t>(done.processor);
      free_mask[proc / 64] |= std::uint64_t{1} << (proc % 64);
      ++free_count;
      if (proc / 64 < free_lo) free_lo = proc / 64;
      const VertexId* q = succ + succ_off[done.vertex];
      const VertexId* e = succ + succ_off[done.vertex + 1];
      for (; q != e; ++q) {
        if (--rp[*q] == 0) push_ready(ready_pos[*q]);
      }
    } while (running > 0 && heap[0].finish == now);
  }
}

}  // namespace

void ls_run_prepared(LsWorkspace& ws, const Dag& dag, int num_processors,
                     std::span<const Time> exec_times) {
  FEDCONS_EXPECTS(num_processors >= 1);
  const std::size_t n = dag.num_vertices();
  FEDCONS_EXPECTS_MSG(ws.init_preds.size() == n,
                      "ls_prepare must run before ls_run_prepared");
  if (exec_times.empty()) {
    exec_times = dag.wcets();
  } else {
    FEDCONS_EXPECTS(exec_times.size() == n);
  }

  ++perf_counters().ls_invocations;

  const auto procs = static_cast<std::size_t>(num_processors);
  const std::size_t free_words = (procs + 63) / 64;
  const std::size_t pos_words = (n + 63) / 64;
  const std::size_t max_running = std::min(n, procs);
  const bool reused =
      ws.remaining_preds.capacity() >= n &&
      ws.ready_mask.capacity() >= pos_words &&
      ws.running.capacity() >= max_running &&
      ws.free_mask.capacity() >= free_words && ws.jobs.capacity() >= n;
  if (reused) ++workspace_reuse_count();

  // Reset per-run state (capacity persists across runs). resize only adjusts
  // length; the bulk writes that follow overwrite every slot that is read.
  ws.remaining_preds.resize(n);
  std::copy_n(ws.init_preds.data(), n, ws.remaining_preds.data());
  ws.ready_mask.resize(pos_words);
  std::fill_n(ws.ready_mask.data(), pos_words, 0);
  ws.running.resize(max_running);
  ws.jobs.resize(n);  // every vertex dispatches exactly once
  ws.free_mask.resize(free_words);
  std::fill_n(ws.free_mask.data(), free_words, ~std::uint64_t{0});
  if (procs % 64 != 0) {
    ws.free_mask[free_words - 1] = (std::uint64_t{1} << (procs % 64)) - 1;
  }

  ws.makespan = run(ws, dag.successor_csr(ws.reduced), exec_times.data(), n,
                    procs);
}

}  // namespace fedcons
