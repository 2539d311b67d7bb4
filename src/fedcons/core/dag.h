// The directed-acyclic-graph workload structure of a sporadic DAG task.
//
// Paper, Section II: each task τ_i is specified by a DAG G_i = (V_i, E_i);
// each vertex v ∈ V_i is a sequential job with WCET e_v ∈ ℕ; each directed
// edge (v, w) is a precedence constraint. Derived metrics:
//   vol_i = Σ_v e_v            — total work of one dag-job,
//   len_i = longest chain      — critical-path length (sum of WCETs along the
//                                 longest precedence chain),
// both computable in time linear in |V| + |E| via a topological sort and a
// dynamic program (paper, Section II).
//
// The class additionally exposes structural queries used by the workload
// generators, the list scheduler, and the experiment suite: topological
// order, per-vertex longest path to a sink ("bottom level", the classic
// critical-path priority for list scheduling), reachability, exact graph
// width (maximum antichain, via Dilworth's theorem and bipartite matching on
// the transitive closure — the task's maximum exploitable parallelism), and
// DOT export for visual inspection.
//
// A graph is assembled in a DagBuilder and frozen by DagBuilder::build into
// an immutable Dag: compressed-sparse-row adjacency (per direction an offset
// array plus one flat array, all four in one block), so a generated system
// holds a few heap blocks per task rather than one per vertex and direction.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fedcons/util/time_types.h"

namespace fedcons {

/// Index of a vertex within its Dag (dense, 0-based).
using VertexId = std::uint32_t;

/// Immutable DAG with integer WCETs on vertices, made by DagBuilder::build
/// (or Dag::with_wcets from another Dag).
///
/// Every Dag is acyclic: build() rejects a cycle. vol and len are computed
/// there, in the same pass. Each vertex's successor and predecessor lists
/// keep the order in which their edges were added.
///
/// Derived results (topological order, levels, transitive reduction) are
/// computed on first read into one block allocated then, so a graph nobody
/// asks about costs nothing beyond its arrays; const queries fill that
/// block, so one Dag must not be queried from two threads at once (the
/// engine gives each trial its own generated system; sessions have one
/// toucher).
class Dag {
 public:
  /// The empty graph.
  Dag() noexcept;
  Dag(const Dag& other);
  Dag& operator=(const Dag& other);
  Dag(Dag&&) noexcept;
  Dag& operator=(Dag&&) noexcept;
  ~Dag();

  /// Append an isolated vertex, rebuilding the frozen arrays (O(|V| + |E|))
  /// and dropping every derived result. Kept for callers that grow an
  /// edgeless graph in place; everything else builds through DagBuilder.
  /// Precondition: wcet >= 1.
  VertexId add_vertex(Time wcet);

  [[nodiscard]] std::size_t num_vertices() const noexcept {
    return wcet_.size();
  }
  [[nodiscard]] std::size_t num_edges() const noexcept {
    return adj_.empty() ? 0 : adj_[wcet_.size()];
  }
  [[nodiscard]] bool empty() const noexcept { return wcet_.empty(); }

  [[nodiscard]] Time wcet(VertexId v) const;
  /// Every vertex's WCET, indexed by vertex id.
  [[nodiscard]] std::span<const Time> wcets() const noexcept { return wcet_; }
  [[nodiscard]] std::span<const VertexId> successors(VertexId v) const;
  [[nodiscard]] std::span<const VertexId> predecessors(VertexId v) const;
  [[nodiscard]] std::size_t in_degree(VertexId v) const;
  [[nodiscard]] std::size_t out_degree(VertexId v) const;
  [[nodiscard]] bool has_edge(VertexId from, VertexId to) const;

  /// The same vertices and edges (list orders included) with vertex v's
  /// WCET replaced by wcets[v]. Preconditions: one WCET per vertex, each
  /// >= 1.
  [[nodiscard]] Dag with_wcets(std::vector<Time> wcets) const;

  /// Deterministic topological order (Kahn's algorithm; smallest vertex id
  /// first among ready vertices). Built and cached with the level arrays on
  /// first use.
  [[nodiscard]] const std::vector<VertexId>& topological_order() const;

  /// vol: total WCET of one dag-job (Σ e_v). Precondition: representable as
  /// Time (ContractViolation otherwise).
  [[nodiscard]] Time vol() const;

  /// len: length of the longest chain (critical path, including endpoint
  /// WCETs). 0 for the empty graph. Same precondition as vol().
  [[nodiscard]] Time len() const;

  /// Longest chain starting at v and ending at a sink, including e_v — the
  /// "bottom level" b(v). max over v of b(v) == len().
  [[nodiscard]] Time bottom_level(VertexId v) const;

  /// Longest chain from a source ending at v, including e_v ("top level").
  [[nodiscard]] Time top_level(VertexId v) const;

  /// One longest chain, as vertex ids in precedence order. Precondition:
  /// non-empty.
  [[nodiscard]] std::vector<VertexId> critical_path() const;

  /// True iff `to` is reachable from `from` by a non-empty directed path.
  [[nodiscard]] bool reaches(VertexId from, VertexId to) const;

  /// Successors of v in the transitive reduction — the unique minimal edge
  /// subset with the same reachability (unique for DAGs). An edge (u, w) is
  /// dropped iff another successor of u reaches w; greedy schedulers may use
  /// the reduced relation verbatim, because the witnessing intermediate
  /// vertex finishes no earlier than u and therefore binds w's ready instant
  /// at least as tightly. Built lazily in O(|E|·|V|/64) via reachability
  /// bitsets over the cached topological order (so the first call also
  /// builds the level arrays) and cached like them; beyond
  /// kMaxReductionVertices the bitset build is skipped and the original
  /// successor lists are returned (a sound over-approximation).
  [[nodiscard]] std::span<const VertexId> reduced_successors(VertexId v) const;

  /// The whole successor relation in CSR form: vertex v's successors are
  /// targets[offsets[v], offsets[v + 1]). Views into the Dag, valid while it
  /// lives unmodified.
  struct SuccessorCsr {
    std::span<const std::uint32_t> offsets;  ///< |V| + 1 entries
    std::span<const VertexId> targets;
  };
  /// The stored successor lists, or with transitive_reduction the cached
  /// relation of reduced_successors (built on first use, like it). Empty
  /// spans for the empty graph.
  [[nodiscard]] SuccessorCsr successor_csr(
      bool transitive_reduction = false) const;

  /// reach[u][v] == true iff v is reachable from u by a non-empty path.
  /// O(|V|²) bits, built on every call.
  [[nodiscard]] std::vector<std::vector<bool>> transitive_closure() const;

  /// Exact width: the maximum antichain size (largest set of pairwise
  /// precedence-incomparable jobs) — the maximum instantaneous parallelism
  /// the task can express. Computed via Dilworth's theorem: width = |V| −
  /// (maximum matching in the bipartite reachability graph). O(V·E(closure)).
  [[nodiscard]] std::size_t width() const;

  /// Graphviz DOT rendering; vertices labelled "v<i> (e=<wcet>)".
  [[nodiscard]] std::string to_dot(const std::string& name = "dag") const;

  /// Vertex-count ceiling for the transitive-reduction bitset build; the
  /// reachability matrix costs |V|²/8 bytes, so past this the reduction
  /// degrades gracefully to the original edge lists.
  static constexpr std::size_t kMaxReductionVertices = 4096;

 private:
  friend class DagBuilder;
  struct Derived;  // lazily built level arrays and transitive reduction

  /// One stack-based Kahn pass over the arrays: returns false iff the edges
  /// form a cycle, else stores vol and len (metrics_ok_ is false when either
  /// overflows Time, which vol()/len() then report).
  bool analyze();
  /// Deterministic topo order + top/bottom level arrays, built on the first
  /// query that reads them (topological_order, top/bottom_level,
  /// critical_path, transitive_closure, ensure_reduced).
  const Derived& ensure_levels() const;
  const Derived& ensure_reduced() const;  // transitive reduction

  std::vector<Time> wcet_;
  /// CSR adjacency, n = |V|, m = |E|: [0, n] successor offsets, then n + 1
  /// predecessor offsets, then m successors, then m predecessors. Empty for
  /// the empty graph.
  std::vector<std::uint32_t> adj_;
  Time vol_ = 0;
  Time len_ = 0;
  bool metrics_ok_ = true;
  mutable std::unique_ptr<Derived> derived_;
};

/// Assembles a Dag: vertices and edges are added in any order, then build()
/// freezes them once. Checks are eager — a WCET below 1, an endpoint out of
/// range, a self-loop or a duplicate edge throws ContractViolation at the
/// call — except acyclicity, which build() checks. Every call has a
/// chainable form:
///   Dag g = DagBuilder{}.vertices({2, 1, 3}).edge(0, 1).edge(1, 2).build();
class DagBuilder {
 public:
  /// Add a job with the given WCET. Precondition: wcet >= 1 (the paper's
  /// e_v ∈ ℕ; zero-length jobs would make "available" ambiguous).
  VertexId add_vertex(Time wcet);

  /// Add precedence edge from -> to. Preconditions: both ids valid,
  /// from != to, edge not already present. O(out_degree(from)).
  void add_edge(VertexId from, VertexId to);

  [[nodiscard]] bool has_edge(VertexId from, VertexId to) const;
  [[nodiscard]] std::size_t num_vertices() const noexcept {
    return wcet_.size();
  }
  [[nodiscard]] std::size_t num_edges() const noexcept { return to_.size(); }
  [[nodiscard]] bool empty() const noexcept { return wcet_.empty(); }

  DagBuilder& vertex(Time wcet);
  DagBuilder& vertices(std::initializer_list<Time> wcets);
  DagBuilder& edge(VertexId from, VertexId to);
  /// Edges from `from` to every vertex in `tos`.
  DagBuilder& fan_out(VertexId from, std::initializer_list<VertexId> tos);
  /// Edges from every vertex in `froms` to `to`.
  DagBuilder& fan_in(std::initializer_list<VertexId> froms, VertexId to);

  /// Freeze the graph and leave the builder empty. Throws ContractViolation
  /// when the edges form a cycle (the builder is left empty then too).
  [[nodiscard]] Dag build();

 private:
  std::vector<Time> wcet_;
  // Edges in insertion order, each source's threaded newest-first through
  // prev_out_ (1 + index of the previous edge from the same source, 0 for
  // none) from last_out_[source] — the duplicate check walks one source's
  // edges without a list per vertex.
  std::vector<VertexId> from_;
  std::vector<VertexId> to_;
  std::vector<std::uint32_t> prev_out_;
  std::vector<std::uint32_t> last_out_;
};

}  // namespace fedcons
