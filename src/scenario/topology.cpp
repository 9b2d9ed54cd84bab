#include "scenario/topology.hpp"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

namespace rss::scenario {

namespace {

[[nodiscard]] std::unordered_map<std::string_view, std::size_t> index_nodes(
    const TopologySpec& spec) {
  std::unordered_map<std::string_view, std::size_t> index;
  index.reserve(spec.nodes.size());
  for (std::size_t i = 0; i < spec.nodes.size(); ++i) index.emplace(spec.nodes[i], i);
  return index;
}

}  // namespace

std::optional<std::size_t> node_index(const TopologySpec& spec, std::string_view name) {
  const auto it = std::find(spec.nodes.begin(), spec.nodes.end(), name);
  if (it == spec.nodes.end()) return std::nullopt;
  return static_cast<std::size_t>(it - spec.nodes.begin());
}

void validate_topology(const TopologySpec& spec) {
  using Code = TopologyError::Code;

  std::unordered_set<std::string_view> seen_nodes;
  for (const auto& name : spec.nodes) {
    if (name.empty()) throw TopologyError(Code::kEmptyName, "topology: node with empty name");
    if (!seen_nodes.insert(name).second)
      throw TopologyError(Code::kDuplicateNode, "topology: duplicate node '" + name + "'");
  }

  const auto index = index_nodes(spec);
  // Unordered node-pair -> already-declared, for duplicate-edge detection.
  std::unordered_set<std::uint64_t> seen_edges;
  for (const auto& link : spec.links) {
    const auto a = index.find(link.a);
    const auto b = index.find(link.b);
    if (a == index.end())
      throw TopologyError(Code::kUnknownEndpoint,
                          "topology: link endpoint '" + link.a + "' is not a declared node");
    if (b == index.end())
      throw TopologyError(Code::kUnknownEndpoint,
                          "topology: link endpoint '" + link.b + "' is not a declared node");
    if (a->second == b->second)
      throw TopologyError(Code::kSelfLoop, "topology: self-loop link at '" + link.a + "'");
    const auto lo = std::min(a->second, b->second);
    const auto hi = std::max(a->second, b->second);
    if (!seen_edges.insert((static_cast<std::uint64_t>(lo) << 32) | hi).second)
      throw TopologyError(Code::kDuplicateLink, "topology: duplicate link between '" + link.a +
                                                    "' and '" + link.b + "'");
  }

  // Per-endpoint flow-id uniqueness: demux happens at the endpoint nodes,
  // so two flows may share an id only when they share no endpoint.
  std::unordered_map<std::size_t, std::unordered_set<std::uint32_t>> ids_at_node;
  for (std::size_t f = 0; f < spec.flows.size(); ++f) {
    const auto& flow = spec.flows[f];
    const auto src = index.find(flow.src);
    const auto dst = index.find(flow.dst);
    if (src == index.end())
      throw TopologyError(Code::kUnknownEndpoint,
                          "topology: flow source '" + flow.src + "' is not a declared node");
    if (dst == index.end())
      throw TopologyError(Code::kUnknownEndpoint,
                          "topology: flow destination '" + flow.dst + "' is not a declared node");
    if (src->second == dst->second)
      throw TopologyError(Code::kSelfLoop,
                          "topology: flow from '" + flow.src + "' to itself");
    const std::uint32_t id =
        flow.flow_id != 0 ? flow.flow_id : static_cast<std::uint32_t>(f + 1);
    for (const auto endpoint : {src->second, dst->second}) {
      if (!ids_at_node[endpoint].insert(id).second)
        throw TopologyError(Code::kDuplicateFlowId,
                            "topology: flow id " + std::to_string(id) +
                                " used twice at node '" + spec.nodes[endpoint] + "'");
    }
  }
}

RouteTable compute_routes(const TopologySpec& spec) {
  const auto index = index_nodes(spec);
  const std::size_t n = spec.nodes.size();

  RouteTable table;
  table.adjacency.resize(n);
  // Device indices follow link declaration order per node — the same order
  // ScenarioBuilder creates NetDevices in.
  for (const auto& link : spec.links) {
    const std::size_t a = index.at(link.a);
    const std::size_t b = index.at(link.b);
    table.adjacency[a].emplace_back(b, table.adjacency[a].size());
    table.adjacency[b].emplace_back(a, table.adjacency[b].size());
  }

  table.next_device.assign(n, std::vector<std::size_t>(n, RouteTable::kUnreachable));
  // BFS per source. Neighbors are visited in link declaration order, so
  // among equal-hop paths the one through the earliest-declared link wins.
  std::vector<std::size_t> parent_device(n);  // device on `src` the path to v starts with
  std::vector<bool> visited(n);
  for (std::size_t src = 0; src < n; ++src) {
    std::fill(visited.begin(), visited.end(), false);
    visited[src] = true;
    std::deque<std::size_t> frontier;
    for (const auto& [neighbor, device] : table.adjacency[src]) {
      if (visited[neighbor]) continue;  // parallel-link guard (validation rejects anyway)
      visited[neighbor] = true;
      parent_device[neighbor] = device;
      table.next_device[src][neighbor] = device;
      frontier.push_back(neighbor);
    }
    while (!frontier.empty()) {
      const std::size_t v = frontier.front();
      frontier.pop_front();
      for (const auto& [neighbor, device] : table.adjacency[v]) {
        (void)device;
        if (visited[neighbor]) continue;
        visited[neighbor] = true;
        parent_device[neighbor] = parent_device[v];
        table.next_device[src][neighbor] = parent_device[v];
        frontier.push_back(neighbor);
      }
    }
  }
  return table;
}

std::size_t RouteTable::hops(std::size_t from, std::size_t to) const {
  if (from == to) return 0;
  std::size_t count = 0;
  std::size_t at = from;
  while (at != to) {
    const std::size_t device = egress(at, to);
    if (device == kUnreachable) return kUnreachable;
    at = adjacency[at][device].first;
    ++count;
    if (count > adjacency.size()) return kUnreachable;  // defensive: no routing loops
  }
  return count;
}

}  // namespace rss::scenario
