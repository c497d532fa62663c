#include "src/hw/topology.h"

#include <algorithm>
#include <sstream>

#include "src/util/check.h"

namespace harmony {

const char* LinkTierName(LinkTier tier) {
  switch (tier) {
    case LinkTier::kPcie:
      return "pcie";
    case LinkTier::kNic:
      return "nic";
    case LinkTier::kRack:
      return "rack";
  }
  return "unknown";
}

NodeId Topology::AddNode(NodeKind kind, std::string name) {
  HCHECK(!finalized_);
  const NodeId id = static_cast<NodeId>(nodes_.size());
  TopologyNode node{kind, std::move(name), -1};
  if (kind == NodeKind::kHost) {
    if (host_node_ == kInvalidNode) {
      host_node_ = id;
    }
    host_nodes_.push_back(id);
  } else if (kind == NodeKind::kGpu) {
    node.gpu_index = static_cast<int>(gpu_nodes_.size());
    gpu_nodes_.push_back(id);
  } else if (kind == NodeKind::kNic) {
    nic_nodes_.push_back(id);
  } else if (kind == NodeKind::kTor) {
    tor_nodes_.push_back(id);
  }
  nodes_.push_back(std::move(node));
  out_links_.emplace_back();
  return id;
}

void Topology::AddDuplexLink(NodeId a, NodeId b, const LinkSpec& spec, LinkTier tier) {
  HCHECK(!finalized_);
  HCHECK_NE(a, b);
  HCHECK_GE(a, 0);
  HCHECK_GE(b, 0);
  HCHECK_LT(a, num_nodes());
  HCHECK_LT(b, num_nodes());
  const LinkId forward = static_cast<LinkId>(links_.size());
  links_.push_back(TopologyLink{a, b, spec, tier});
  out_links_[static_cast<std::size_t>(a)].push_back(forward);
  const LinkId backward = static_cast<LinkId>(links_.size());
  links_.push_back(TopologyLink{b, a, spec, tier});
  out_links_[static_cast<std::size_t>(b)].push_back(backward);
}

void Topology::Finalize() {
  HCHECK(!finalized_);
  HCHECK_NE(host_node_, kInvalidNode) << "topology needs a host node";
  // Catch bad link specs here with a clear message rather than deep inside the flow model,
  // where a zero bandwidth would only surface as an opaque rate-check failure mid-run.
  for (const TopologyLink& l : links_) {
    HCHECK_GT(l.spec.bandwidth_bytes_per_sec, 0.0)
        << "link '" << l.spec.name << "' (" << node(l.src).name << " -> " << node(l.dst).name
        << ") must have positive bandwidth";
    HCHECK_GE(l.spec.latency_sec, 0.0)
        << "link '" << l.spec.name << "' (" << node(l.src).name << " -> " << node(l.dst).name
        << ") must have non-negative latency";
  }
  const int n = num_nodes();
  HCHECK_EQ(num_links(), 2 * (n - 1))
      << "topology must be a tree: " << n << " nodes need " << 2 * (n - 1)
      << " directed links (one duplex link per non-root node), have " << num_links();

  // One BFS from the first host roots the tree. With n - 1 duplex links, reaching every
  // node proves there is no cycle, so each route is the unique path between its ends.
  tree_.assign(static_cast<std::size_t>(n), TreePosition{});
  std::vector<bool> visited(static_cast<std::size_t>(n), false);
  visited[static_cast<std::size_t>(host_node_)] = true;
  std::vector<NodeId> order{host_node_};  // BFS order; doubles as the queue
  for (std::size_t i = 0; i < order.size(); ++i) {
    const NodeId at = order[i];
    for (LinkId down : out_links_[static_cast<std::size_t>(at)]) {
      const NodeId next = links_[static_cast<std::size_t>(down)].dst;
      if (!visited[static_cast<std::size_t>(next)]) {
        visited[static_cast<std::size_t>(next)] = true;
        // AddDuplexLink gives a link's two directions an even id and the odd id after it.
        tree_[static_cast<std::size_t>(next)] =
            TreePosition{tree_[static_cast<std::size_t>(at)].depth + 1, down ^ 1, down};
        order.push_back(next);
      }
    }
  }
  HCHECK_EQ(static_cast<int>(order.size()), n)
      << "topology is disconnected: " << order.size() << " of " << n << " nodes reach "
      << node(host_node_).name;
  finalized_ = true;

  // Each GPU swaps to the first host above it. The dense index of that host within
  // host_nodes_ (ascending, like every node list) is the GPU's server — the node grouping
  // the hierarchical collective and the plan's two-level group structure use.
  gpu_swap_host_.clear();
  gpu_server_.clear();
  for (NodeId at : gpu_nodes_) {
    while (node(at).kind != NodeKind::kHost) {
      at = link(tree_[static_cast<std::size_t>(at)].up).dst;
    }
    gpu_swap_host_.push_back(at);
    gpu_server_.push_back(static_cast<int>(
        std::lower_bound(host_nodes_.begin(), host_nodes_.end(), at) - host_nodes_.begin()));
  }
}

std::vector<LinkId> Topology::Route(NodeId src, NodeId dst) const {
  HCHECK(finalized_);
  HCHECK_GE(src, 0);
  HCHECK_GE(dst, 0);
  HCHECK_LT(src, num_nodes());
  HCHECK_LT(dst, num_nodes());
  // Climb from the deeper end (both ends once level) until they meet: src's climb gives
  // the route's first half in order, dst's gives its second half backwards.
  std::vector<LinkId> route;
  std::vector<LinkId> down;
  while (src != dst) {
    const TreePosition& s = tree_[static_cast<std::size_t>(src)];
    const TreePosition& d = tree_[static_cast<std::size_t>(dst)];
    if (s.depth >= d.depth) {
      route.push_back(s.up);
      src = link(s.up).dst;
    }
    if (d.depth >= s.depth) {
      down.push_back(d.down);
      dst = link(d.down).src;
    }
  }
  route.insert(route.end(), down.rbegin(), down.rend());
  return route;
}

bool Topology::RouteAvoidsHost(NodeId src, NodeId dst) const {
  if (src == dst) {
    return true;
  }
  for (LinkId lid : Route(src, dst)) {
    const TopologyLink& l = link(lid);
    if (node(l.src).kind == NodeKind::kHost || node(l.dst).kind == NodeKind::kHost) {
      return false;
    }
  }
  return true;
}

std::string Topology::DescribeRoutes() const {
  std::ostringstream os;
  auto describe = [&](NodeId src, NodeId dst) {
    os << node(src).name << " -> " << node(dst).name << ": ";
    const auto& route = Route(src, dst);
    for (std::size_t i = 0; i < route.size(); ++i) {
      const TopologyLink& l = link(route[i]);
      if (i == 0) {
        os << node(l.src).name;
      }
      os << " --[" << l.spec.name << "]--> " << node(l.dst).name;
    }
    os << "\n";
  };
  for (int g = 0; g < num_gpus(); ++g) {
    describe(gpu_node(g), host_node());
  }
  for (int a = 0; a < num_gpus(); ++a) {
    for (int b = 0; b < num_gpus(); ++b) {
      if (a != b) {
        describe(gpu_node(a), gpu_node(b));
      }
    }
  }
  return os.str();
}

Topology MakeCommodityServerTopology(const ServerConfig& config) {
  HCHECK_GT(config.num_gpus, 0);
  HCHECK_GT(config.gpus_per_switch, 0);
  Topology topo;
  const NodeId host = topo.AddNode(NodeKind::kHost, "host");
  const int num_switches =
      (config.num_gpus + config.gpus_per_switch - 1) / config.gpus_per_switch;
  std::vector<NodeId> switches;
  switches.reserve(static_cast<std::size_t>(num_switches));
  for (int s = 0; s < num_switches; ++s) {
    const NodeId sw = topo.AddNode(NodeKind::kSwitch, "pcie-sw" + std::to_string(s));
    topo.AddDuplexLink(sw, host, config.host_link);
    switches.push_back(sw);
  }
  for (int g = 0; g < config.num_gpus; ++g) {
    const NodeId gpu = topo.AddNode(NodeKind::kGpu, "gpu" + std::to_string(g));
    const NodeId sw = switches[static_cast<std::size_t>(g / config.gpus_per_switch)];
    topo.AddDuplexLink(gpu, sw, config.gpu_link);
  }
  topo.Finalize();
  return topo;
}

Machine MakeCommodityServer(const ServerConfig& config) {
  Machine machine;
  machine.topology = MakeCommodityServerTopology(config);
  machine.gpus.assign(static_cast<std::size_t>(config.num_gpus), config.gpu);
  machine.p2p_enabled = config.p2p_enabled;
  return machine;
}

Topology MakeClusterTopology(const ClusterConfig& config) {
  HCHECK_GT(config.num_servers, 0);
  HCHECK_GE(config.nodes_per_rack, 0);
  const ServerConfig& server = config.server;
  HCHECK_GT(server.num_gpus, 0);
  HCHECK_GT(server.gpus_per_switch, 0);
  // Widen before multiplying: both factors may be as large as 1 << 20 (the cluster-spec
  // limit), so the product overflows int. The bound itself is a typed error at the parse /
  // validation layer; reaching here past it is an internal invariant violation.
  HCHECK_LE(std::int64_t{config.num_servers} * server.num_gpus, kMaxClusterGpus)
      << "cluster topology of " << config.num_servers << " nodes x " << server.num_gpus
      << " GPUs exceeds kMaxClusterGpus";

  const int nodes_per_rack =
      config.nodes_per_rack == 0 ? config.num_servers : config.nodes_per_rack;
  const int num_racks = (config.num_servers + nodes_per_rack - 1) / nodes_per_rack;

  Topology topo;
  std::vector<NodeId> tors;
  tors.reserve(static_cast<std::size_t>(num_racks));
  for (int r = 0; r < num_racks; ++r) {
    tors.push_back(topo.AddNode(NodeKind::kTor, "rack" + std::to_string(r)));
  }
  // A single rack needs no aggregation tier; with several, the ToRs meet at a spine over the
  // (faster but shared) rack links.
  if (num_racks > 1) {
    const NodeId spine = topo.AddNode(NodeKind::kSwitch, "spine");
    for (NodeId tor : tors) {
      topo.AddDuplexLink(tor, spine, config.rack, LinkTier::kRack);
    }
  }
  for (int s = 0; s < config.num_servers; ++s) {
    const std::string prefix = "n" + std::to_string(s) + ".";
    const NodeId host = topo.AddNode(NodeKind::kHost, prefix + "host");
    const NodeId nic = topo.AddNode(NodeKind::kNic, prefix + "nic");
    topo.AddDuplexLink(host, nic, config.nic, LinkTier::kNic);
    topo.AddDuplexLink(nic, tors[static_cast<std::size_t>(s / nodes_per_rack)], config.nic,
                       LinkTier::kNic);
    const int num_switches =
        (server.num_gpus + server.gpus_per_switch - 1) / server.gpus_per_switch;
    std::vector<NodeId> switches;
    for (int sw = 0; sw < num_switches; ++sw) {
      const NodeId node = topo.AddNode(NodeKind::kSwitch, prefix + "pcie-sw" + std::to_string(sw));
      topo.AddDuplexLink(node, host, server.host_link);
      switches.push_back(node);
    }
    for (int g = 0; g < server.num_gpus; ++g) {
      const NodeId gpu =
          topo.AddNode(NodeKind::kGpu, prefix + "gpu" + std::to_string(g));
      topo.AddDuplexLink(gpu, switches[static_cast<std::size_t>(g / server.gpus_per_switch)],
                         server.gpu_link);
    }
  }
  topo.Finalize();
  return topo;
}

Machine MakeCluster(const ClusterConfig& config) {
  Machine machine;
  machine.topology = MakeClusterTopology(config);
  machine.gpus.assign(
      static_cast<std::size_t>(std::int64_t{config.num_servers} * config.server.num_gpus),
      config.server.gpu);
  machine.p2p_enabled = config.server.p2p_enabled;
  return machine;
}

}  // namespace harmony
