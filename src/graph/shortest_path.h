// Shortest-path search over the frozen CompactGraph: Dijkstra and A* (the
// paper's Section 3.3 uses A* minimizing transition-derived edge costs),
// reachability, and connected components. All functions are thin id-domain
// wrappers over the one CSR engine in graph/search.h — build a Digraph,
// Freeze() it, and query the frozen form.
#pragma once

#include <vector>

#include "core/status.h"
#include "graph/compact_graph.h"
#include "graph/search.h"

namespace habit::graph {

/// Result of a shortest-path query.
struct PathResult {
  std::vector<NodeId> nodes;  ///< source..target inclusive
  double cost = 0.0;          ///< sum of edge weights along the path
  size_t expanded = 0;        ///< number of settled nodes (search effort)
};

/// \brief A* shortest path with an admissible heuristic over node ids.
///
/// The heuristic is a template parameter (no std::function indirection on
/// the edge-relaxation path). Pass `scratch` to amortize search state
/// across a batch of queries; with nullptr a local scratch is used.
template <typename HeuristicFn>
Result<PathResult> AStar(const CompactGraph& g, NodeId source, NodeId target,
                         HeuristicFn&& h, SearchScratch* scratch = nullptr) {
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
  const CsrSearch run =
      RunSearch(g, {&seed, 1}, [dst](NodeIndex u) { return u == dst; },
                [&g, &h](NodeIndex u) { return h(g.IdOf(u)); }, state);
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

/// Dijkstra shortest path from `source` to `target` using the edge weights.
/// Returns kUnreachable if no path exists.
Result<PathResult> Dijkstra(const CompactGraph& g, NodeId source,
                            NodeId target, SearchScratch* scratch = nullptr);

/// \brief Dijkstra accelerated by the graph's ALT landmark columns (see
/// graph/landmarks.h). Returns the same path, cost, and parent chain as
/// `Dijkstra` — the landmarks only shrink the explored corridor — and
/// degrades to plain Dijkstra when the graph carries no landmarks.
/// `w_min` is a positive lower bound on every edge weight of `g`.
Result<PathResult> DijkstraAlt(const CompactGraph& g, NodeId source,
                               NodeId target, double w_min,
                               SearchScratch* scratch = nullptr);

/// Single-source Dijkstra distances to every reachable node.
std::vector<std::pair<NodeId, double>> DijkstraAll(const CompactGraph& g,
                                                   NodeId source);

/// Nodes reachable from `source` following directed edges (BFS order).
std::vector<NodeId> ReachableFrom(const CompactGraph& g, NodeId source);

/// Weakly connected components (edge direction ignored); each inner vector
/// is one component.
std::vector<std::vector<NodeId>> WeaklyConnectedComponents(
    const CompactGraph& g);

/// Strongly connected components (Kosaraju, iterative); within one component
/// every node can reach every other along directed edges.
std::vector<std::vector<NodeId>> StronglyConnectedComponents(
    const CompactGraph& g);

}  // namespace habit::graph
