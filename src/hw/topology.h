// Interconnect topology: a tree of nodes (hosts, PCIe switches, GPUs, NICs, rack switches)
// and the full-duplex links between them, so each route is the unique path between its ends.
//
// The canonical instance is MakeCommodityServer(): N GPUs behind PCIe switches whose single
// x16 uplink to the host root complex is shared — the 4:1/8:1 oversubscription the paper
// blames for the data-parallel swap bottleneck (Fig. 2(b)).
#ifndef HARMONY_SRC_HW_TOPOLOGY_H_
#define HARMONY_SRC_HW_TOPOLOGY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/hw/specs.h"
#include "src/util/status.h"
#include "src/util/units.h"

namespace harmony {

using NodeId = int;
using LinkId = int;

inline constexpr NodeId kInvalidNode = -1;

enum class NodeKind {
  kHost,    // CPU + host DRAM (swap target)
  kSwitch,  // PCIe switch (no memory, just forwarding)
  kGpu,
  kNic,     // per-node network interface (host uplink onto the fabric)
  kTor,     // top-of-rack / spine switch (network tier forwarding)
};

// Which contention tier a link belongs to. The TransferManager applies the same fair-share
// flow model to every tier; the tier only labels the link for per-tier byte attribution
// (RunReport::tiers) and for the cluster conservation tests.
enum class LinkTier : int {
  kPcie = 0,  // intra-server: GPU <-> switch <-> host
  kNic = 1,   // host <-> NIC and NIC <-> top-of-rack
  kRack = 2,  // top-of-rack <-> spine
};
inline constexpr int kNumLinkTiers = 3;

const char* LinkTierName(LinkTier tier);

struct TopologyNode {
  NodeKind kind;
  std::string name;
  int gpu_index = -1;  // dense GPU index for kGpu nodes, -1 otherwise
};

// Directed link (full-duplex physical links are two TopologyLink entries).
struct TopologyLink {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  LinkSpec spec;
  LinkTier tier = LinkTier::kPcie;
};

class Topology {
 public:
  Topology() = default;

  NodeId AddNode(NodeKind kind, std::string name);
  // Adds a full-duplex link (two directed links) between a and b.
  void AddDuplexLink(NodeId a, NodeId b, const LinkSpec& spec,
                     LinkTier tier = LinkTier::kPcie);

  // Must be called once all nodes/links are added. Checks that the links form a tree and
  // records each node's depth and links to and from its parent, rooted at the first host.
  void Finalize();
  bool finalized() const { return finalized_; }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_links() const { return static_cast<int>(links_.size()); }
  int num_gpus() const { return static_cast<int>(gpu_nodes_.size()); }

  const TopologyNode& node(NodeId id) const { return nodes_.at(static_cast<std::size_t>(id)); }
  const TopologyLink& link(LinkId id) const { return links_.at(static_cast<std::size_t>(id)); }

  // The first host node (single-server topologies have exactly one).
  NodeId host_node() const { return host_node_; }
  int num_hosts() const { return static_cast<int>(host_nodes_.size()); }
  NodeId gpu_node(int gpu_index) const {
    return gpu_nodes_.at(static_cast<std::size_t>(gpu_index));
  }
  // The first host above a GPU in the tree — its swap target. In a multi-server cluster
  // each GPU swaps to its own server's DRAM, never across the network.
  NodeId HostNodeForGpu(int gpu_index) const {
    return gpu_swap_host_.at(static_cast<std::size_t>(gpu_index));
  }

  // Server (compute-node) structure, filled by Finalize. A "server" is one host node plus
  // everything that swaps to it; single-server topologies report one server holding every
  // GPU. ServerOfGpu is the dense index of the GPU's swap host — the node index the
  // hierarchical collective and the plan's two-level group structure use.
  int num_servers() const { return num_hosts(); }
  int ServerOfGpu(int gpu_index) const {
    return gpu_server_.at(static_cast<std::size_t>(gpu_index));
  }

  // Network-tier entities for fault targeting (`nic0`, `rack0` in the fault grammar):
  // per-server NIC nodes and top-of-rack switch nodes, in creation order. Both empty on
  // single-server topologies.
  int num_nics() const { return static_cast<int>(nic_nodes_.size()); }
  NodeId nic_node(int nic_index) const {
    return nic_nodes_.at(static_cast<std::size_t>(nic_index));
  }
  int num_racks() const { return static_cast<int>(tor_nodes_.size()); }
  NodeId tor_node(int rack_index) const {
    return tor_nodes_.at(static_cast<std::size_t>(rack_index));
  }

  // Ordered link ids along the tree path src -> dst. Empty when src == dst.
  std::vector<LinkId> Route(NodeId src, NodeId dst) const;

  // True when src and dst are GPUs whose route avoids every host node — i.e. a p2p transfer
  // that does not consume host-uplink bandwidth beyond the switch tier.
  bool RouteAvoidsHost(NodeId src, NodeId dst) const;

  // Human-readable route table for all GPU<->GPU and GPU<->host pairs (Fig. 2(b) companion).
  std::string DescribeRoutes() const;

 private:
  std::vector<TopologyNode> nodes_;
  std::vector<TopologyLink> links_;
  std::vector<std::vector<LinkId>> out_links_;  // per node
  NodeId host_node_ = kInvalidNode;
  std::vector<NodeId> host_nodes_;
  std::vector<NodeId> gpu_nodes_;
  std::vector<NodeId> nic_nodes_;
  std::vector<NodeId> tor_nodes_;
  std::vector<NodeId> gpu_swap_host_;  // per GPU, filled by Finalize
  std::vector<int> gpu_server_;        // per GPU: index of its swap host in host_nodes_
  struct TreePosition {  // a node's place in the tree rooted at host_node_
    int depth = 0;
    LinkId up = -1;    // node -> parent; -1 at the root
    LinkId down = -1;  // parent -> node
  };
  std::vector<TreePosition> tree_;  // per node, filled by Finalize
  bool finalized_ = false;
};

struct ServerConfig {
  int num_gpus = 4;
  GpuSpec gpu = Gtx1080Ti();
  // GPUs per PCIe switch; the switch uplink is one host_link regardless of how many GPUs sit
  // below it, which is exactly the oversubscription in commodity 4U GPU servers.
  int gpus_per_switch = 4;
  LinkSpec gpu_link = PcieGen3x16();   // GPU <-> switch
  LinkSpec host_link = PcieGen3x16();  // switch <-> host root complex
  bool p2p_enabled = true;             // GPU<->GPU DMA through the switch tier
};

// Builds the commodity-server topology from `config`. GPU specs are carried alongside in the
// returned Machine (see machine.h).
Topology MakeCommodityServerTopology(const ServerConfig& config);

// A machine = topology + per-GPU specs + config knobs the runtime needs.
struct Machine {
  Topology topology;
  std::vector<GpuSpec> gpus;
  bool p2p_enabled = true;

  int num_gpus() const { return static_cast<int>(gpus.size()); }
};

Machine MakeCommodityServer(const ServerConfig& config);

// Upper bound on nodes * gpus_per_node for any simulated cluster. The cluster-spec grammar
// caps each factor at 1 << 20, so the *product* can reach 1 << 40 — far past what an `int`
// holds and far past anything the simulator can build. Sizing math must widen to 64 bits
// before multiplying and check against this bound; ParseClusterSpec and
// ValidateSessionConfig surface the violation as a typed error before any topology is
// constructed.
inline constexpr std::int64_t kMaxClusterGpus = std::int64_t{1} << 20;

// Multi-server cluster (Sec. 4 of the paper): `num_servers` commodity servers ("nodes"),
// each with its own NIC behind the host root complex, attached to a top-of-rack switch; with
// more than one rack the ToRs connect through a spine over `rack` links. GPUs are indexed
// globally (node-major); each GPU swaps to its own node's host memory, and cross-node tensor
// traffic crosses the (much slower) NIC and rack tiers.
struct ClusterConfig {
  int num_servers = 2;
  int nodes_per_rack = 0;  // 0 = one rack holds every node
  ServerConfig server;     // per-node shape
  LinkSpec nic = Ethernet25G();    // host <-> NIC <-> ToR (tier kNic)
  LinkSpec rack = Ethernet100G();  // ToR <-> spine (tier kRack)
};

Topology MakeClusterTopology(const ClusterConfig& config);
Machine MakeCluster(const ClusterConfig& config);

}  // namespace harmony

#endif  // HARMONY_SRC_HW_TOPOLOGY_H_
