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
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fedcons/util/time_types.h"

namespace fedcons {

/// Index of a vertex within its Dag (dense, 0-based).
using VertexId = std::uint32_t;

/// Immutable-after-build DAG with integer WCETs on vertices.
///
/// Build by add_vertex()/add_edge(); edges may be added in any order. The
/// structure is validated lazily: acyclicity is established the first time a
/// derived query runs and is a precondition of all of them (a cycle throws
/// ContractViolation). Self-loops and duplicate edges are rejected eagerly.
///
/// Derived results are cached on first use, so const queries mutate the
/// cache: one Dag must not be queried from two threads at once (the engine
/// gives each trial its own generated system; sessions have one toucher).
class Dag {
 public:
  Dag() = default;

  /// Add a job with the given WCET. Precondition: wcet >= 1 (the paper's
  /// e_v ∈ ℕ; zero-length jobs would make "available" ambiguous).
  VertexId add_vertex(Time wcet);

  /// Add precedence edge from -> to. Preconditions: both ids valid,
  /// from != to, edge not already present. May create a cycle — detected on
  /// the next derived query.
  void add_edge(VertexId from, VertexId to);

  [[nodiscard]] std::size_t num_vertices() const noexcept {
    return wcet_.size();
  }
  [[nodiscard]] std::size_t num_edges() const noexcept { return num_edges_; }
  [[nodiscard]] bool empty() const noexcept { return wcet_.empty(); }

  [[nodiscard]] Time wcet(VertexId v) const;
  [[nodiscard]] std::span<const VertexId> successors(VertexId v) const;
  [[nodiscard]] std::span<const VertexId> predecessors(VertexId v) const;
  [[nodiscard]] std::size_t in_degree(VertexId v) const;
  [[nodiscard]] std::size_t out_degree(VertexId v) const;
  [[nodiscard]] bool has_edge(VertexId from, VertexId to) const;

  /// True iff the edge relation is acyclic. Never throws.
  [[nodiscard]] bool is_acyclic() const;

  /// Deterministic topological order (Kahn's algorithm; smallest vertex id
  /// first among ready vertices). Built and cached with the level arrays on
  /// first use. Precondition: acyclic.
  [[nodiscard]] const std::vector<VertexId>& topological_order() const;

  /// vol: total WCET of one dag-job (Σ e_v). O(|V|), cached.
  [[nodiscard]] Time vol() const;

  /// len: length of the longest chain (critical path, including endpoint
  /// WCETs). 0 for the empty graph. Precondition: acyclic. Cached.
  [[nodiscard]] Time len() const;

  /// Longest chain starting at v and ending at a sink, including e_v — the
  /// "bottom level" b(v). max over v of b(v) == len(). Precondition: acyclic.
  [[nodiscard]] Time bottom_level(VertexId v) const;

  /// Longest chain from a source ending at v, including e_v ("top level").
  [[nodiscard]] Time top_level(VertexId v) const;

  /// One longest chain, as vertex ids in precedence order. Precondition:
  /// acyclic and non-empty.
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
  /// Precondition: acyclic.
  [[nodiscard]] std::span<const VertexId> reduced_successors(VertexId v) const;

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
  /// Cycle check + vol + len, storing nothing per vertex: most tasks (every
  /// low-density one) never ask for more. Throws on a cycle.
  void ensure_analyzed() const;
  /// Deterministic topo order + top/bottom level arrays, built on the first
  /// query that reads them (topological_order, top/bottom_level,
  /// critical_path, transitive_closure, ensure_reduced). Throws on a cycle.
  void ensure_levels() const;
  void ensure_reduced() const;  // transitive reduction; throws on a cycle
  void invalidate() noexcept;
  /// Some topological order (stack-based Kahn); shorter than num_vertices()
  /// iff the graph has a cycle. Never throws.
  [[nodiscard]] std::vector<VertexId> any_topological_order() const;
  [[nodiscard]] std::vector<std::vector<bool>> transitive_closure() const;

  std::vector<Time> wcet_;
  std::vector<std::vector<VertexId>> succ_;
  std::vector<std::vector<VertexId>> pred_;
  std::size_t num_edges_ = 0;

  // Lazily computed analysis results (cleared by mutation): vol/len from
  // ensure_analyzed, the per-vertex arrays from ensure_levels.
  mutable bool analyzed_ = false;
  mutable Time vol_ = 0;
  mutable Time len_ = 0;
  mutable bool levels_built_ = false;
  mutable std::vector<VertexId> topo_;
  mutable std::vector<Time> bottom_;
  mutable std::vector<Time> top_;

  // Cached transitive reduction (CSR layout). reduced_trivial_ marks the
  // size-gated case where the reduction is defined as the original lists.
  mutable bool reduced_built_ = false;
  mutable bool reduced_trivial_ = false;
  mutable std::vector<std::uint32_t> red_off_;
  mutable std::vector<VertexId> red_flat_;
};

}  // namespace fedcons
