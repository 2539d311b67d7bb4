#include "fedcons/core/dag.h"

#include <algorithm>
#include <queue>
#include <sstream>

#include "fedcons/util/check.h"

namespace fedcons {

struct Dag::Derived {
  bool levels_built = false;
  std::vector<VertexId> topo;
  std::vector<Time> bottom;
  std::vector<Time> top;

  // Cached transitive reduction (CSR layout). reduced_trivial marks the
  // size-gated case where the reduction is defined as the original lists.
  bool reduced_built = false;
  bool reduced_trivial = false;
  std::vector<std::uint32_t> red_off;
  std::vector<VertexId> red_flat;
};

Dag::Dag() noexcept = default;

Dag::Dag(const Dag& other)
    : wcet_(other.wcet_),
      adj_(other.adj_),
      vol_(other.vol_),
      len_(other.len_),
      metrics_ok_(other.metrics_ok_),
      derived_(other.derived_ ? std::make_unique<Derived>(*other.derived_)
                              : nullptr) {}

Dag& Dag::operator=(const Dag& other) {
  if (this != &other) *this = Dag(other);
  return *this;
}

Dag::Dag(Dag&&) noexcept = default;
Dag& Dag::operator=(Dag&&) noexcept = default;
Dag::~Dag() = default;

VertexId Dag::add_vertex(Time wcet) {
  FEDCONS_EXPECTS_MSG(wcet >= 1, "vertex WCET must be a positive integer");
  const std::size_t n = wcet_.size();
  const std::uint32_t m = static_cast<std::uint32_t>(num_edges());
  // The new vertex has no edges: each offset array gains a trailing m.
  std::vector<std::uint32_t> adj;
  adj.reserve(2 * (n + 2) + 2 * std::size_t{m});
  if (n == 0) {
    adj.assign({0, 0, 0, 0});
  } else {
    const auto* a = adj_.data();
    adj.insert(adj.end(), a, a + n + 1);
    adj.push_back(m);
    adj.insert(adj.end(), a + n + 1, a + 2 * (n + 1));
    adj.push_back(m);
    adj.insert(adj.end(), a + 2 * (n + 1), a + adj_.size());
  }
  adj_ = std::move(adj);
  wcet_.push_back(wcet);
  derived_.reset();
  analyze();
  return static_cast<VertexId>(n);
}

Time Dag::wcet(VertexId v) const {
  FEDCONS_EXPECTS(v < wcet_.size());
  return wcet_[v];
}

std::span<const VertexId> Dag::successors(VertexId v) const {
  FEDCONS_EXPECTS(v < wcet_.size());
  const std::size_t n = wcet_.size();
  return {adj_.data() + 2 * (n + 1) + adj_[v], adj_[v + 1] - adj_[v]};
}

std::span<const VertexId> Dag::predecessors(VertexId v) const {
  FEDCONS_EXPECTS(v < wcet_.size());
  const std::size_t n = wcet_.size();
  const std::uint32_t* off = adj_.data() + n + 1;
  return {adj_.data() + 2 * (n + 1) + num_edges() + off[v],
          off[v + 1] - off[v]};
}

std::size_t Dag::in_degree(VertexId v) const { return predecessors(v).size(); }

std::size_t Dag::out_degree(VertexId v) const { return successors(v).size(); }

bool Dag::has_edge(VertexId from, VertexId to) const {
  FEDCONS_EXPECTS(to < wcet_.size());
  const auto s = successors(from);
  return std::find(s.begin(), s.end(), to) != s.end();
}

Dag Dag::with_wcets(std::vector<Time> wcets) const {
  FEDCONS_EXPECTS_MSG(wcets.size() == wcet_.size(),
                      "with_wcets: one WCET per vertex");
  for (const Time w : wcets) {
    FEDCONS_EXPECTS_MSG(w >= 1, "vertex WCET must be a positive integer");
  }
  Dag out;
  out.wcet_ = std::move(wcets);
  out.adj_ = adj_;
  out.analyze();
  return out;
}

bool Dag::analyze() {
  // Kahn's algorithm with a stack (any topological order will do: vol and
  // len do not depend on it). best[v] collects the longest chain ending at
  // a processed predecessor, so len needs no second pass.
  const std::size_t n = wcet_.size();
  vol_ = 0;
  len_ = 0;
  metrics_ok_ = true;
  if (n == 0) return true;
  const std::uint32_t* pred_off = adj_.data() + n + 1;
  std::vector<std::uint32_t> indeg(n);
  std::vector<Time> best(n, 0);
  std::vector<VertexId> stack;
  for (std::size_t v = 0; v < n; ++v) {
    indeg[v] = pred_off[v + 1] - pred_off[v];
    if (indeg[v] == 0) stack.push_back(static_cast<VertexId>(v));
  }
  std::size_t visited = 0;
  bool overflow = false;
  while (!stack.empty()) {
    const VertexId v = stack.back();
    stack.pop_back();
    ++visited;
    Time top = 0;
    overflow |= __builtin_add_overflow(best[v], wcet_[v], &top);
    overflow |= __builtin_add_overflow(vol_, wcet_[v], &vol_);
    len_ = std::max(len_, top);
    for (VertexId w : successors(v)) {
      best[w] = std::max(best[w], top);
      if (--indeg[w] == 0) stack.push_back(w);
    }
  }
  metrics_ok_ = !overflow;
  return visited == n;
}

const Dag::Derived& Dag::ensure_levels() const {
  if (derived_ == nullptr) derived_ = std::make_unique<Derived>();
  Derived& d = *derived_;
  if (d.levels_built) return d;
  const std::size_t n = wcet_.size();

  // Deterministic Kahn: min-id among ready vertices first.
  std::vector<std::size_t> indeg(n);
  std::priority_queue<VertexId, std::vector<VertexId>, std::greater<>> ready;
  for (std::size_t v = 0; v < n; ++v) {
    indeg[v] = in_degree(static_cast<VertexId>(v));
    if (indeg[v] == 0) ready.push(static_cast<VertexId>(v));
  }
  d.topo.clear();
  d.topo.reserve(n);
  while (!ready.empty()) {
    VertexId v = ready.top();
    ready.pop();
    d.topo.push_back(v);
    for (VertexId w : successors(v))
      if (--indeg[w] == 0) ready.push(w);
  }

  // top level: forward pass in topo order.
  d.top.assign(n, 0);
  for (VertexId v : d.topo) {
    Time best = 0;
    for (VertexId p : predecessors(v)) best = std::max(best, d.top[p]);
    d.top[v] = checked_add(best, wcet_[v]);
  }
  // bottom level: backward pass.
  d.bottom.assign(n, 0);
  for (auto it = d.topo.rbegin(); it != d.topo.rend(); ++it) {
    VertexId v = *it;
    Time best = 0;
    for (VertexId s : successors(v)) best = std::max(best, d.bottom[s]);
    d.bottom[v] = checked_add(best, wcet_[v]);
  }

  d.levels_built = true;
  return d;
}

const Dag::Derived& Dag::ensure_reduced() const {
  const Derived& levels = ensure_levels();
  Derived& d = *derived_;
  if (d.reduced_built) return d;
  const std::size_t n = wcet_.size();
  if (n > kMaxReductionVertices) {
    d.reduced_trivial = true;
    d.reduced_built = true;
    return d;
  }
  // Reverse-topological sweep with one reachability bitset per vertex:
  // when u is visited, every successor's set is final. An edge (u, s) is
  // redundant iff s is reachable through some *other* successor, i.e. its
  // bit is set in the union of the successors' sets (s never appears in its
  // own set — the graph is acyclic — so the witness is a different vertex).
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> reach(n * words, 0);
  std::vector<std::uint64_t> via(words);
  std::vector<char> kept(num_edges(), 0);  // by successor-CSR position
  const std::uint32_t* succ_off = adj_.data();
  for (auto it = levels.topo.rbegin(); it != levels.topo.rend(); ++it) {
    const VertexId u = *it;
    std::fill(via.begin(), via.end(), 0);
    const auto succ = successors(u);
    for (VertexId s : succ) {
      const std::uint64_t* rs = reach.data() + std::size_t{s} * words;
      for (std::size_t w = 0; w < words; ++w) via[w] |= rs[w];
    }
    for (std::size_t j = 0; j < succ.size(); ++j) {
      const VertexId s = succ[j];
      if ((via[s / 64] >> (s % 64) & 1) == 0) kept[succ_off[u] + j] = 1;
    }
    std::uint64_t* ru = reach.data() + std::size_t{u} * words;
    std::copy(via.begin(), via.end(), ru);
    for (VertexId s : succ) ru[s / 64] |= std::uint64_t{1} << (s % 64);
  }
  d.red_off.assign(n + 1, 0);
  d.red_flat.clear();
  for (std::size_t v = 0; v < n; ++v) {
    const auto succ = successors(static_cast<VertexId>(v));
    for (std::size_t j = 0; j < succ.size(); ++j) {
      if (kept[succ_off[v] + j] != 0) d.red_flat.push_back(succ[j]);
    }
    d.red_off[v + 1] = static_cast<std::uint32_t>(d.red_flat.size());
  }
  d.reduced_trivial = false;
  d.reduced_built = true;
  return d;
}

std::span<const VertexId> Dag::reduced_successors(VertexId v) const {
  FEDCONS_EXPECTS(v < wcet_.size());
  const SuccessorCsr csr = successor_csr(/*transitive_reduction=*/true);
  return csr.targets.subspan(csr.offsets[v],
                             csr.offsets[v + 1] - csr.offsets[v]);
}

Dag::SuccessorCsr Dag::successor_csr(bool transitive_reduction) const {
  const std::size_t n = wcet_.size();
  if (n == 0) return {};
  if (transitive_reduction) {
    const Derived& d = ensure_reduced();
    if (!d.reduced_trivial) return {d.red_off, d.red_flat};
  }
  return {{adj_.data(), n + 1}, {adj_.data() + 2 * (n + 1), num_edges()}};
}

const std::vector<VertexId>& Dag::topological_order() const {
  return ensure_levels().topo;
}

Time Dag::vol() const {
  FEDCONS_EXPECTS_MSG(metrics_ok_, "Time addition overflow");
  return vol_;
}

Time Dag::len() const {
  FEDCONS_EXPECTS_MSG(metrics_ok_, "Time addition overflow");
  return len_;
}

Time Dag::bottom_level(VertexId v) const {
  FEDCONS_EXPECTS(v < wcet_.size());
  return ensure_levels().bottom[v];
}

Time Dag::top_level(VertexId v) const {
  FEDCONS_EXPECTS(v < wcet_.size());
  return ensure_levels().top[v];
}

std::vector<VertexId> Dag::critical_path() const {
  FEDCONS_EXPECTS(!empty());
  const std::vector<Time>& bottom = ensure_levels().bottom;
  // Start from a source with maximal bottom level, then greedily follow the
  // successor whose bottom level equals the remainder.
  VertexId cur = 0;
  Time best = -1;
  for (VertexId v = 0; v < wcet_.size(); ++v) {
    if (in_degree(v) == 0 && bottom[v] > best) {
      best = bottom[v];
      cur = v;
    }
  }
  std::vector<VertexId> path{cur};
  while (out_degree(cur) != 0) {
    Time want = bottom[cur] - wcet_[cur];
    if (want == 0) break;
    VertexId next = cur;
    bool found = false;
    for (VertexId s : successors(cur)) {
      if (bottom[s] == want) {
        next = s;
        found = true;
        break;
      }
    }
    FEDCONS_ASSERT(found);
    path.push_back(next);
    cur = next;
  }
  return path;
}

bool Dag::reaches(VertexId from, VertexId to) const {
  FEDCONS_EXPECTS(from < wcet_.size());
  FEDCONS_EXPECTS(to < wcet_.size());
  std::vector<bool> seen(wcet_.size(), false);
  std::vector<VertexId> stack{from};
  seen[from] = true;
  while (!stack.empty()) {
    VertexId v = stack.back();
    stack.pop_back();
    for (VertexId s : successors(v)) {
      if (s == to) return true;
      if (!seen[s]) {
        seen[s] = true;
        stack.push_back(s);
      }
    }
  }
  return false;
}

std::vector<std::vector<bool>> Dag::transitive_closure() const {
  const std::vector<VertexId>& topo = ensure_levels().topo;
  const std::size_t n = wcet_.size();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  // Process in reverse topological order: reach[v] = union of successors.
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    VertexId v = *it;
    for (VertexId s : successors(v)) {
      reach[v][s] = true;
      for (std::size_t w = 0; w < n; ++w)
        if (reach[s][w]) reach[v][w] = true;
    }
  }
  return reach;
}

std::size_t Dag::width() const {
  const std::size_t n = wcet_.size();
  if (n == 0) return 0;
  // Dilworth: max antichain = n − max matching in the bipartite graph whose
  // edges are the comparable pairs (u ≺ v). Kuhn's augmenting-path matching.
  auto reach = transitive_closure();
  std::vector<int> match_right(n, -1);
  std::vector<bool> visited;
  // Recursive augmenting search expressed iteratively via a lambda + stack is
  // noisier than plain recursion; depth is bounded by n (small DAGs).
  auto try_kuhn = [&](auto&& self, std::size_t u) -> bool {
    for (std::size_t v = 0; v < n; ++v) {
      if (!reach[u][v] || visited[v]) continue;
      visited[v] = true;
      if (match_right[v] < 0 ||
          self(self, static_cast<std::size_t>(match_right[v]))) {
        match_right[v] = static_cast<int>(u);
        return true;
      }
    }
    return false;
  };
  std::size_t matching = 0;
  for (std::size_t u = 0; u < n; ++u) {
    visited.assign(n, false);
    if (try_kuhn(try_kuhn, u)) ++matching;
  }
  return n - matching;
}

std::string Dag::to_dot(const std::string& name) const {
  std::ostringstream os;
  os << "digraph " << name << " {\n";
  for (std::size_t v = 0; v < wcet_.size(); ++v) {
    os << "  v" << v << " [label=\"v" << v << " (e=" << wcet_[v] << ")\"];\n";
  }
  for (VertexId v = 0; v < wcet_.size(); ++v) {
    for (VertexId s : successors(v)) os << "  v" << v << " -> v" << s << ";\n";
  }
  os << "}\n";
  return os.str();
}

VertexId DagBuilder::add_vertex(Time wcet) {
  FEDCONS_EXPECTS_MSG(wcet >= 1, "vertex WCET must be a positive integer");
  wcet_.push_back(wcet);
  last_out_.push_back(0);
  return static_cast<VertexId>(wcet_.size() - 1);
}

void DagBuilder::add_edge(VertexId from, VertexId to) {
  FEDCONS_EXPECTS(from < wcet_.size());
  FEDCONS_EXPECTS(to < wcet_.size());
  FEDCONS_EXPECTS_MSG(from != to, "self-loop rejected");
  FEDCONS_EXPECTS_MSG(!has_edge(from, to), "duplicate edge rejected");
  from_.push_back(from);
  to_.push_back(to);
  prev_out_.push_back(last_out_[from]);
  last_out_[from] = static_cast<std::uint32_t>(to_.size());
}

bool DagBuilder::has_edge(VertexId from, VertexId to) const {
  FEDCONS_EXPECTS(from < wcet_.size());
  FEDCONS_EXPECTS(to < wcet_.size());
  for (std::uint32_t e = last_out_[from]; e != 0; e = prev_out_[e - 1]) {
    if (to_[e - 1] == to) return true;
  }
  return false;
}

DagBuilder& DagBuilder::vertex(Time wcet) {
  add_vertex(wcet);
  return *this;
}

DagBuilder& DagBuilder::vertices(std::initializer_list<Time> wcets) {
  for (Time w : wcets) add_vertex(w);
  return *this;
}

DagBuilder& DagBuilder::edge(VertexId from, VertexId to) {
  add_edge(from, to);
  return *this;
}

DagBuilder& DagBuilder::fan_out(VertexId from,
                                std::initializer_list<VertexId> tos) {
  for (VertexId to : tos) add_edge(from, to);
  return *this;
}

DagBuilder& DagBuilder::fan_in(std::initializer_list<VertexId> froms,
                               VertexId to) {
  for (VertexId from : froms) add_edge(from, to);
  return *this;
}

Dag DagBuilder::build() {
  DagBuilder b = std::move(*this);
  *this = DagBuilder{};
  const std::size_t n = b.wcet_.size();
  const std::size_t m = b.to_.size();
  Dag g;
  if (n == 0) return g;
  // Counting sort of the edge list by source and by target. Placing edges in
  // insertion order keeps each vertex's lists in the order they were added.
  g.adj_.assign(2 * (n + 1) + 2 * m, 0);
  std::uint32_t* succ_off = g.adj_.data();
  std::uint32_t* pred_off = succ_off + n + 1;
  std::uint32_t* succ = pred_off + n + 1;
  std::uint32_t* pred = succ + m;
  for (std::size_t e = 0; e < m; ++e) {
    ++succ_off[b.from_[e] + 1];
    ++pred_off[b.to_[e] + 1];
  }
  for (std::size_t v = 0; v < n; ++v) {
    succ_off[v + 1] += succ_off[v];
    pred_off[v + 1] += pred_off[v];
  }
  // Each placement advances its vertex's offset to the next vertex's start;
  // shifting the arrays back by one slot afterwards restores the starts.
  for (std::size_t e = 0; e < m; ++e) {
    succ[succ_off[b.from_[e]]++] = b.to_[e];
    pred[pred_off[b.to_[e]]++] = b.from_[e];
  }
  for (std::size_t v = n; v > 0; --v) {
    succ_off[v] = succ_off[v - 1];
    pred_off[v] = pred_off[v - 1];
  }
  succ_off[0] = 0;
  pred_off[0] = 0;
  g.wcet_ = std::move(b.wcet_);
  FEDCONS_EXPECTS_MSG(g.analyze(), "built graph contains a cycle");
  return g;
}

}  // namespace fedcons
