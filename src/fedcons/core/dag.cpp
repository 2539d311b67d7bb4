#include "fedcons/core/dag.h"

#include <algorithm>
#include <queue>
#include <sstream>

#include "fedcons/util/check.h"

namespace fedcons {

VertexId Dag::add_vertex(Time wcet) {
  FEDCONS_EXPECTS_MSG(wcet >= 1, "vertex WCET must be a positive integer");
  invalidate();
  wcet_.push_back(wcet);
  succ_.emplace_back();
  pred_.emplace_back();
  return static_cast<VertexId>(wcet_.size() - 1);
}

void Dag::add_edge(VertexId from, VertexId to) {
  FEDCONS_EXPECTS(from < wcet_.size());
  FEDCONS_EXPECTS(to < wcet_.size());
  FEDCONS_EXPECTS_MSG(from != to, "self-loop rejected");
  FEDCONS_EXPECTS_MSG(!has_edge(from, to), "duplicate edge rejected");
  invalidate();
  succ_[from].push_back(to);
  pred_[to].push_back(from);
  ++num_edges_;
}

Time Dag::wcet(VertexId v) const {
  FEDCONS_EXPECTS(v < wcet_.size());
  return wcet_[v];
}

std::span<const VertexId> Dag::successors(VertexId v) const {
  FEDCONS_EXPECTS(v < wcet_.size());
  return succ_[v];
}

std::span<const VertexId> Dag::predecessors(VertexId v) const {
  FEDCONS_EXPECTS(v < wcet_.size());
  return pred_[v];
}

std::size_t Dag::in_degree(VertexId v) const { return predecessors(v).size(); }

std::size_t Dag::out_degree(VertexId v) const { return successors(v).size(); }

bool Dag::has_edge(VertexId from, VertexId to) const {
  FEDCONS_EXPECTS(from < wcet_.size());
  FEDCONS_EXPECTS(to < wcet_.size());
  const auto& s = succ_[from];
  return std::find(s.begin(), s.end(), to) != s.end();
}

void Dag::invalidate() noexcept {
  analyzed_ = false;
  levels_built_ = false;
  topo_.clear();
  bottom_.clear();
  top_.clear();
  reduced_built_ = false;
  reduced_trivial_ = false;
  red_off_.clear();
  red_flat_.clear();
}

bool Dag::is_acyclic() const {
  return analyzed_ || any_topological_order().size() == wcet_.size();
}

std::vector<VertexId> Dag::any_topological_order() const {
  // Kahn's algorithm with a stack: cheaper than the deterministic min-id
  // order, and enough wherever the result does not depend on the order.
  std::vector<std::size_t> indeg(wcet_.size());
  std::vector<VertexId> stack;
  for (std::size_t v = 0; v < wcet_.size(); ++v) {
    indeg[v] = pred_[v].size();
    if (indeg[v] == 0) stack.push_back(static_cast<VertexId>(v));
  }
  std::vector<VertexId> order;
  order.reserve(wcet_.size());
  while (!stack.empty()) {
    const VertexId v = stack.back();
    stack.pop_back();
    order.push_back(v);
    for (VertexId w : succ_[v])
      if (--indeg[w] == 0) stack.push_back(w);
  }
  return order;
}

void Dag::ensure_analyzed() const {
  if (analyzed_) return;
  const std::size_t n = wcet_.size();

  // vol and len do not depend on which topological order is walked; the
  // order and the top levels are transient (ensure_levels stores the
  // deterministic order and both level arrays when a query needs them).
  const std::vector<VertexId> order = any_topological_order();
  FEDCONS_EXPECTS_MSG(order.size() == n, "graph contains a cycle");

  vol_ = 0;
  for (Time e : wcet_) vol_ = checked_add(vol_, e);

  std::vector<Time> top(n, 0);
  len_ = 0;
  for (VertexId v : order) {
    Time best = 0;
    for (VertexId p : pred_[v]) best = std::max(best, top[p]);
    top[v] = checked_add(best, wcet_[v]);
    len_ = std::max(len_, top[v]);
  }

  analyzed_ = true;
}

void Dag::ensure_levels() const {
  if (levels_built_) return;
  ensure_analyzed();  // throws on a cycle before anything is stored
  const std::size_t n = wcet_.size();

  // Deterministic Kahn: min-id among ready vertices first.
  std::vector<std::size_t> indeg(n);
  std::priority_queue<VertexId, std::vector<VertexId>, std::greater<>> ready;
  for (std::size_t v = 0; v < n; ++v) {
    indeg[v] = pred_[v].size();
    if (indeg[v] == 0) ready.push(static_cast<VertexId>(v));
  }
  topo_.clear();
  topo_.reserve(n);
  while (!ready.empty()) {
    VertexId v = ready.top();
    ready.pop();
    topo_.push_back(v);
    for (VertexId w : succ_[v])
      if (--indeg[w] == 0) ready.push(w);
  }

  // top level: forward pass in topo order.
  top_.assign(n, 0);
  for (VertexId v : topo_) {
    Time best = 0;
    for (VertexId p : pred_[v]) best = std::max(best, top_[p]);
    top_[v] = checked_add(best, wcet_[v]);
  }
  // bottom level: backward pass.
  bottom_.assign(n, 0);
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    VertexId v = *it;
    Time best = 0;
    for (VertexId s : succ_[v]) best = std::max(best, bottom_[s]);
    bottom_[v] = checked_add(best, wcet_[v]);
  }

  levels_built_ = true;
}

void Dag::ensure_reduced() const {
  if (reduced_built_) return;
  ensure_levels();
  const std::size_t n = wcet_.size();
  if (n > kMaxReductionVertices) {
    reduced_trivial_ = true;
    reduced_built_ = true;
    return;
  }
  // Reverse-topological sweep with one reachability bitset per vertex:
  // when u is visited, every successor's set is final. An edge (u, s) is
  // redundant iff s is reachable through some *other* successor, i.e. its
  // bit is set in the union of the successors' sets (s never appears in its
  // own set — the graph is acyclic — so the witness is a different vertex).
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> reach(n * words, 0);
  std::vector<std::uint64_t> via(words);
  red_off_.assign(n + 1, 0);
  red_flat_.clear();
  std::vector<std::vector<VertexId>> kept(n);
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    const VertexId u = *it;
    std::fill(via.begin(), via.end(), 0);
    for (VertexId s : succ_[u]) {
      const std::uint64_t* rs = reach.data() + std::size_t{s} * words;
      for (std::size_t w = 0; w < words; ++w) via[w] |= rs[w];
    }
    for (VertexId s : succ_[u]) {
      if ((via[s / 64] >> (s % 64) & 1) == 0) kept[u].push_back(s);
    }
    std::uint64_t* ru = reach.data() + std::size_t{u} * words;
    std::copy(via.begin(), via.end(), ru);
    for (VertexId s : succ_[u]) ru[s / 64] |= std::uint64_t{1} << (s % 64);
  }
  for (std::size_t v = 0; v < n; ++v) {
    red_off_[v + 1] =
        red_off_[v] + static_cast<std::uint32_t>(kept[v].size());
    red_flat_.insert(red_flat_.end(), kept[v].begin(), kept[v].end());
  }
  reduced_trivial_ = false;
  reduced_built_ = true;
}

std::span<const VertexId> Dag::reduced_successors(VertexId v) const {
  FEDCONS_EXPECTS(v < wcet_.size());
  ensure_reduced();
  if (reduced_trivial_) return succ_[v];
  return {red_flat_.data() + red_off_[v], red_off_[v + 1] - red_off_[v]};
}

const std::vector<VertexId>& Dag::topological_order() const {
  ensure_levels();
  return topo_;
}

Time Dag::vol() const {
  ensure_analyzed();
  return vol_;
}

Time Dag::len() const {
  ensure_analyzed();
  return len_;
}

Time Dag::bottom_level(VertexId v) const {
  FEDCONS_EXPECTS(v < wcet_.size());
  ensure_levels();
  return bottom_[v];
}

Time Dag::top_level(VertexId v) const {
  FEDCONS_EXPECTS(v < wcet_.size());
  ensure_levels();
  return top_[v];
}

std::vector<VertexId> Dag::critical_path() const {
  FEDCONS_EXPECTS(!empty());
  ensure_levels();
  // Start from a source with maximal bottom level, then greedily follow the
  // successor whose bottom level equals the remainder.
  VertexId cur = 0;
  Time best = -1;
  for (std::size_t v = 0; v < wcet_.size(); ++v) {
    if (pred_[v].empty() && bottom_[v] > best) {
      best = bottom_[v];
      cur = static_cast<VertexId>(v);
    }
  }
  std::vector<VertexId> path{cur};
  while (!succ_[cur].empty()) {
    Time want = bottom_[cur] - wcet_[cur];
    if (want == 0) break;
    VertexId next = cur;
    bool found = false;
    for (VertexId s : succ_[cur]) {
      if (bottom_[s] == want) {
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
  ensure_analyzed();
  std::vector<bool> seen(wcet_.size(), false);
  std::vector<VertexId> stack{from};
  seen[from] = true;
  while (!stack.empty()) {
    VertexId v = stack.back();
    stack.pop_back();
    for (VertexId s : succ_[v]) {
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
  ensure_levels();
  const std::size_t n = wcet_.size();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  // Process in reverse topological order: reach[v] = union of successors.
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    VertexId v = *it;
    for (VertexId s : succ_[v]) {
      reach[v][s] = true;
      for (std::size_t w = 0; w < n; ++w)
        if (reach[s][w]) reach[v][w] = true;
    }
  }
  return reach;
}

std::size_t Dag::width() const {
  ensure_analyzed();
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
  for (std::size_t v = 0; v < wcet_.size(); ++v) {
    for (VertexId s : succ_[v]) os << "  v" << v << " -> v" << s << ";\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace fedcons
