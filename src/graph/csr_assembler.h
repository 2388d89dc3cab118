// The one CSR assembly path. Every owned CompactGraph built in-process
// fills its arrays here: HABIT's transition graph straight from its sorted
// edge runs (habit/graph_builder.h), and Digraph::Freeze for the GTI point
// graph, the CSV loader and the landmark reverse graph. The layout rules —
// dense indices in ascending id order, rows sorted by target index,
// precomputed in-degrees — are therefore written once. The snapshot
// loaders restore arrays assembled here and validate them.
#pragma once

#include <span>
#include <vector>

#include "geo/latlng.h"

#include "core/status.h"
#include "graph/compact_graph.h"

namespace habit::graph {

/// One directed edge, named by node ids.
struct CsrEdge {
  NodeId src = 0;
  NodeId dst = 0;
  EdgeAttrs attrs;
};

/// Node statistics as columns, one entry per node. The assembler moves
/// them into the graph rather than copying them.
struct NodeColumns {
  std::vector<geo::LatLng> median_pos;
  std::vector<geo::LatLng> center_pos;
  std::vector<int64_t> message_count;
  std::vector<int64_t> distinct_vessels;
  std::vector<double> median_sog;
  std::vector<double> median_cog;

  void Reserve(size_t n);
  void Append(const NodeAttrs& attrs);
  NodeAttrs At(size_t i) const;
};

/// The assembler's edge order: by source id, then target id.
inline bool CsrEdgeLess(const CsrEdge& a, const CsrEdge& b) {
  return a.src != b.src ? a.src < b.src : a.dst < b.dst;
}

/// \brief Lays sorted nodes and edges out as a CompactGraph.
///
/// `node_ids` must be strictly ascending and hold every edge endpoint;
/// `edges` must be strictly ascending by (src, dst). Each of `nodes`'
/// columns holds one entry per node, or all are empty for a topology-only
/// graph, which also drops the edge statistics (transitions, grid
/// distance) and keeps only weights.
/// Because index order is id order, each source's run of edges already is
/// its CSR row in target order, so one pass fills the arrays: sources by a
/// merge walk, targets by the graph's bucketed id lookup. InvalidArgument
/// if an input breaks these rules.
Result<CompactGraph> AssembleCsr(std::vector<NodeId> node_ids,
                                 NodeColumns nodes,
                                 std::span<const CsrEdge> edges);

}  // namespace habit::graph
