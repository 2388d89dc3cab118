#include "graph/shortest_path.h"

#include <numeric>
#include <queue>

#include "graph/landmarks.h"

namespace habit::graph {

namespace {

constexpr auto kZeroHeuristic = [](NodeId) { return 0.0; };

// Reverse CSR (in-edges) built with a counting sort over edge targets.
struct ReverseAdjacency {
  std::vector<uint32_t> offsets;  // num_nodes + 1
  std::vector<NodeIndex> src;

  explicit ReverseAdjacency(const CompactGraph& g) {
    const size_t n = g.num_nodes();
    offsets.assign(n + 1, 0);
    for (NodeIndex u = 0; u < n; ++u) offsets[u + 1] = offsets[u] + g.InDegree(u);
    src.resize(g.num_edges());
    std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (NodeIndex u = 0; u < n; ++u) {
      for (const NodeIndex v : g.OutNeighbors(u)) src[cursor[v]++] = u;
    }
  }

  std::span<const NodeIndex> InNeighbors(NodeIndex v) const {
    return {src.data() + offsets[v], src.data() + offsets[v + 1]};
  }
};

}  // namespace

Result<PathResult> Dijkstra(const CompactGraph& g, NodeId source,
                            NodeId target, SearchScratch* scratch) {
  return AStar(g, source, target, kZeroHeuristic, scratch);
}

Result<PathResult> DijkstraAlt(const CompactGraph& g, NodeId source,
                               NodeId target, double w_min,
                               SearchScratch* scratch) {
  const NodeIndex src = g.IndexOf(source);
  if (src == kInvalidNodeIndex) {
    return Status::NotFound("source node not in graph");
  }
  const NodeIndex dst = g.IndexOf(target);
  if (dst == kInvalidNodeIndex) {
    return Status::NotFound("target node not in graph");
  }
  SearchScratch local;
  SearchScratch& state = scratch != nullptr ? *scratch : local;
  const SearchSeed seed{src, 0.0};
  const CsrSearch run = RunSearchAlt(
      g, {&seed, 1}, [dst](NodeIndex u) { return u == dst; }, {&dst, 1},
      w_min, state);
  if (!run.found) {
    return Status::Unreachable("no path from source to target");
  }
  PathResult result;
  result.cost = run.cost;
  result.expanded = run.expanded;
  for (const NodeIndex i : ReconstructPath(state, run.reached)) {
    result.nodes.push_back(g.IdOf(i));
  }
  return result;
}

std::vector<std::pair<NodeId, double>> DijkstraAll(const CompactGraph& g,
                                                   NodeId source) {
  std::vector<std::pair<NodeId, double>> out;
  const NodeIndex src = g.IndexOf(source);
  if (src == kInvalidNodeIndex) return out;
  SearchScratch scratch;
  const SearchSeed seed{src, 0.0};
  RunSearch(g, {&seed, 1}, [](NodeIndex) { return false; }, kZeroHeuristic,
            scratch);
  for (NodeIndex u = 0; u < g.num_nodes(); ++u) {
    if (scratch.Settled(u)) out.emplace_back(g.IdOf(u), scratch.dist[u]);
  }
  return out;
}

std::vector<NodeId> ReachableFrom(const CompactGraph& g, NodeId source) {
  std::vector<NodeId> out;
  const NodeIndex src = g.IndexOf(source);
  if (src == kInvalidNodeIndex) return out;
  std::vector<uint8_t> seen(g.num_nodes(), 0);
  std::queue<NodeIndex> frontier;
  seen[src] = 1;
  frontier.push(src);
  while (!frontier.empty()) {
    const NodeIndex u = frontier.front();
    frontier.pop();
    out.push_back(g.IdOf(u));
    for (const NodeIndex v : g.OutNeighbors(u)) {
      if (!seen[v]) {
        seen[v] = 1;
        frontier.push(v);
      }
    }
  }
  return out;
}

std::vector<std::vector<NodeId>> WeaklyConnectedComponents(
    const CompactGraph& g) {
  // Union-find over the dense indices; edge direction ignored.
  const size_t n = g.num_nodes();
  std::vector<NodeIndex> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](NodeIndex x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];  // path halving
      x = parent[x];
    }
    return x;
  };
  for (NodeIndex u = 0; u < n; ++u) {
    for (const NodeIndex v : g.OutNeighbors(u)) {
      const NodeIndex ru = find(u);
      const NodeIndex rv = find(v);
      if (ru != rv) parent[ru] = rv;
    }
  }
  std::vector<std::vector<NodeId>> components;
  std::vector<uint32_t> comp_of(n, UINT32_MAX);
  for (NodeIndex u = 0; u < n; ++u) {
    const NodeIndex root = find(u);
    if (comp_of[root] == UINT32_MAX) {
      comp_of[root] = static_cast<uint32_t>(components.size());
      components.emplace_back();
    }
    components[comp_of[root]].push_back(g.IdOf(u));
  }
  return components;
}

std::vector<std::vector<NodeId>> StronglyConnectedComponents(
    const CompactGraph& g) {
  // Kosaraju: (1) iterative DFS finish order, (2) DFS on the reverse graph
  // in reverse finish order.
  const size_t n = g.num_nodes();
  const ReverseAdjacency reverse(g);

  std::vector<NodeIndex> order;
  order.reserve(n);
  std::vector<uint8_t> visited(n, 0);
  struct Frame {
    NodeIndex node;
    uint32_t next_child;
  };
  std::vector<Frame> stack;
  for (NodeIndex start = 0; start < n; ++start) {
    if (visited[start]) continue;
    visited[start] = 1;
    stack.push_back({start, 0});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto out = g.OutNeighbors(frame.node);
      if (frame.next_child < out.size()) {
        const NodeIndex child = out[frame.next_child++];
        if (!visited[child]) {
          visited[child] = 1;
          stack.push_back({child, 0});
        }
      } else {
        order.push_back(frame.node);
        stack.pop_back();
      }
    }
  }

  std::vector<std::vector<NodeId>> components;
  std::vector<uint8_t> assigned(n, 0);
  std::vector<NodeIndex> dfs;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (assigned[*it]) continue;
    std::vector<NodeId> comp;
    assigned[*it] = 1;
    dfs.push_back(*it);
    while (!dfs.empty()) {
      const NodeIndex u = dfs.back();
      dfs.pop_back();
      comp.push_back(g.IdOf(u));
      for (const NodeIndex v : reverse.InNeighbors(u)) {
        if (!assigned[v]) {
          assigned[v] = 1;
          dfs.push_back(v);
        }
      }
    }
    components.push_back(std::move(comp));
  }
  return components;
}

}  // namespace habit::graph
