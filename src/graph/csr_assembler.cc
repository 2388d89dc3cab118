#include "graph/csr_assembler.h"

#include <cstdint>
#include <string>

namespace habit::graph {

void NodeColumns::Reserve(size_t n) {
  median_pos.reserve(n);
  center_pos.reserve(n);
  message_count.reserve(n);
  distinct_vessels.reserve(n);
  median_sog.reserve(n);
  median_cog.reserve(n);
}

void NodeColumns::Append(const NodeAttrs& attrs) {
  median_pos.push_back(attrs.median_pos);
  center_pos.push_back(attrs.center_pos);
  message_count.push_back(attrs.message_count);
  distinct_vessels.push_back(attrs.distinct_vessels);
  median_sog.push_back(attrs.median_sog);
  median_cog.push_back(attrs.median_cog);
}

NodeAttrs NodeColumns::At(size_t i) const {
  return NodeAttrs{median_pos[i],    center_pos[i], message_count[i],
                   distinct_vessels[i], median_sog[i], median_cog[i]};
}

Result<CompactGraph> AssembleCsr(std::vector<NodeId> node_ids,
                                 NodeColumns nodes,
                                 std::span<const CsrEdge> edges) {
  const size_t n = node_ids.size();
  const size_t m = edges.size();
  if (n >= kInvalidNodeIndex || m > UINT32_MAX) {
    return Status::InvalidArgument(
        "graph too large for 32-bit CSR indices: " + std::to_string(n) +
        " nodes, " + std::to_string(m) + " edges");
  }
  for (size_t i = 1; i < n; ++i) {
    if (node_ids[i - 1] >= node_ids[i]) {
      return Status::InvalidArgument("node ids are not strictly ascending");
    }
  }
  const bool keep_attrs = !nodes.median_pos.empty();
  for (const size_t size :
       {nodes.median_pos.size(), nodes.center_pos.size(),
        nodes.message_count.size(), nodes.distinct_vessels.size(),
        nodes.median_sog.size(), nodes.median_cog.size()}) {
    if (size != (keep_attrs ? n : 0)) {
      return Status::InvalidArgument(
          "node attribute columns do not match the nodes");
    }
  }

  CompactGraph::Arrays a;
  a.node_ids = std::move(node_ids);
  // Targets resolve through the graph's own bucketed IndexOf, bound to the
  // id column before any edge exists.
  CompactGraph lookup;
  lookup.node_ids_ = a.node_ids;
  lookup.BuildIdLookup();

  a.row_offsets.assign(n + 1, 0);
  a.in_degree.assign(n, 0);
  a.edge_dst.resize(m);
  a.edge_weight.resize(m);
  if (keep_attrs) {
    a.edge_transitions.resize(m);
    a.edge_grid_distance.resize(m);
  }
  NodeIndex u = 0;  // the row being filled; rows before it are closed
  for (size_t e = 0; e < m; ++e) {
    const CsrEdge& edge = edges[e];
    if (e > 0 && !CsrEdgeLess(edges[e - 1], edge)) {
      return Status::InvalidArgument(
          "edges are not strictly ascending by (src, dst)");
    }
    while (u < n && a.node_ids[u] < edge.src) {
      a.row_offsets[++u] = static_cast<uint32_t>(e);
    }
    const NodeIndex v = lookup.IndexOf(edge.dst);
    if (u == n || a.node_ids[u] != edge.src || v == kInvalidNodeIndex) {
      return Status::InvalidArgument("edge endpoint is not a node");
    }
    a.edge_dst[e] = v;
    a.edge_weight[e] = edge.attrs.weight;
    if (keep_attrs) {
      a.edge_transitions[e] = edge.attrs.transitions;
      a.edge_grid_distance[e] = edge.attrs.grid_distance;
    }
    ++a.in_degree[v];
  }
  while (u < n) a.row_offsets[++u] = static_cast<uint32_t>(m);

  a.median_pos = std::move(nodes.median_pos);
  a.center_pos = std::move(nodes.center_pos);
  a.message_count = std::move(nodes.message_count);
  a.distinct_vessels = std::move(nodes.distinct_vessels);
  a.median_sog = std::move(nodes.median_sog);
  a.median_cog = std::move(nodes.median_cog);
  return CompactGraph::FromOwned(std::move(a));
}

}  // namespace habit::graph
