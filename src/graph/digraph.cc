#include "graph/digraph.h"

#include <algorithm>

#include "graph/csr_assembler.h"

namespace habit::graph {

bool Digraph::AddNode(NodeId id, NodeAttrs attrs) {
  // try_emplace: emplace would allocate (and free) a map node even when the
  // id is already present, which AddEdge hits twice per edge.
  return nodes_.try_emplace(id, attrs).second;
}

void Digraph::AddEdge(NodeId u, NodeId v, EdgeAttrs attrs) {
  AddNode(u);
  AddNode(v);
  auto& out = adj_[u];
  for (auto& [nbr, existing] : out) {
    if (nbr == v) {
      existing = attrs;
      return;
    }
  }
  out.emplace_back(v, attrs);
  ++num_edges_;
}

bool Digraph::HasEdge(NodeId u, NodeId v) const {
  auto it = adj_.find(u);
  if (it == adj_.end()) return false;
  for (const auto& [nbr, attrs] : it->second) {
    if (nbr == v) return true;
  }
  return false;
}

Result<NodeAttrs> Digraph::GetNode(NodeId id) const {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) {
    return Status::NotFound("node " + std::to_string(id) + " not in graph");
  }
  return it->second;
}

Result<EdgeAttrs> Digraph::GetEdge(NodeId u, NodeId v) const {
  auto it = adj_.find(u);
  if (it != adj_.end()) {
    for (const auto& [nbr, attrs] : it->second) {
      if (nbr == v) return attrs;
    }
  }
  return Status::NotFound("edge not in graph");
}

Status Digraph::SetNodeAttrs(NodeId id, const NodeAttrs& attrs) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) {
    return Status::NotFound("node " + std::to_string(id) + " not in graph");
  }
  it->second = attrs;
  return Status::OK();
}

const std::vector<std::pair<NodeId, EdgeAttrs>>& Digraph::OutEdges(
    NodeId u) const {
  static const std::vector<std::pair<NodeId, EdgeAttrs>> empty;
  auto it = adj_.find(u);
  return it == adj_.end() ? empty : it->second;
}

CompactGraph Digraph::Freeze(bool keep_attrs) const {
  std::vector<NodeId> ids;
  ids.reserve(nodes_.size());
  for (const auto& [id, attrs] : nodes_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  NodeColumns attrs;
  if (keep_attrs) {
    attrs.Reserve(ids.size());
    for (const NodeId id : ids) attrs.Append(nodes_.at(id));
  }
  std::vector<CsrEdge> edges;
  edges.reserve(num_edges_);
  for (const auto& [u, out] : adj_) {
    for (const auto& [v, e] : out) edges.push_back({u, v, e});
  }
  std::sort(edges.begin(), edges.end(), CsrEdgeLess);
  // AddEdge adds both endpoints as nodes and replaces a repeated pair, so
  // the input always satisfies the assembler's rules.
  return AssembleCsr(std::move(ids), std::move(attrs), edges).MoveValue();
}

size_t Digraph::SerializedSizeBytes() const {
  // Node row: cell id (8) + median lon/lat (16) + message count (4) +
  // distinct vessels (4) + median sog/cog (8) = 40 bytes.
  // Edge row: src (8) + dst (8) + transitions (4) = 20 bytes.
  return nodes_.size() * 40 + num_edges_ * 20;
}

size_t Digraph::SizeBytes() const {
  size_t bytes = nodes_.size() * (sizeof(NodeId) + sizeof(NodeAttrs) + 16);
  for (const auto& [u, out] : adj_) {
    bytes += sizeof(NodeId) + 24 +
             out.size() * (sizeof(NodeId) + sizeof(EdgeAttrs));
  }
  return bytes;
}

}  // namespace habit::graph
