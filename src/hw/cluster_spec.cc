#include "src/hw/cluster_spec.h"

#include <cstdint>
#include <cstdio>

#include "src/util/spec_grammar.h"

namespace harmony {
namespace {

// Shortest stable rendering for link speeds ("25", "12.5", "0.4").
std::string FormatG(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

}  // namespace

StatusOr<ClusterSpec> ParseClusterSpec(const std::string& spec) {
  const SpecGrammar g("malformed cluster spec", "--cluster grammar");
  const auto positive = [](double v) { return v > 0.0; };
  ClusterSpec out;
  HARMONY_RETURN_IF_ERROR(g.ParseKeyValues(
      SpecField{spec, 0}, "cluster option",
      {g.IntKey("nodes", 1, kMaxSpecCount, &out.nodes),
       g.IntKey("gpus_per_node", 1, kMaxSpecCount, &out.gpus_per_node),
       g.IntKey("nodes_per_rack", 0, kMaxSpecCount, &out.nodes_per_rack),
       g.NumberKey("nic_gbps", &out.nic_gbps, "a positive number of Gbit/s", positive),
       g.NumberKey("rack_gbps", &out.rack_gbps, "a positive number of Gbit/s", positive)}));
  // Each factor is individually bounded, but the *product* is the machine size; widen
  // before multiplying (int would overflow at the limits) and bound the total.
  const std::int64_t total_gpus = std::int64_t{out.nodes} * out.gpus_per_node;
  if (total_gpus > kMaxClusterGpus) {
    return g.Error(0, "nodes * gpus_per_node = " + std::to_string(total_gpus) +
                          " GPUs exceeds the supported maximum of " +
                          std::to_string(kMaxClusterGpus));
  }
  return out;
}

std::string RenderClusterSpec(const ClusterSpec& spec) {
  std::string out = "nodes=" + std::to_string(spec.nodes);
  out += ",gpus_per_node=" + std::to_string(spec.gpus_per_node);
  out += ",nodes_per_rack=" + std::to_string(spec.nodes_per_rack);
  out += ",nic_gbps=" + FormatG(spec.nic_gbps);
  out += ",rack_gbps=" + FormatG(spec.rack_gbps);
  return out;
}

LinkSpec NicLinkSpec(double gbps) {
  return LinkSpec{FormatG(gbps) + "GbE", gbps * 1e9 / 8.0, 20e-6};
}

LinkSpec RackLinkSpec(double gbps) {
  return LinkSpec{FormatG(gbps) + "GbE", gbps * 1e9 / 8.0, 25e-6};
}

ClusterConfig ToClusterConfig(const ClusterSpec& spec, ServerConfig server) {
  server.num_gpus = spec.gpus_per_node;
  ClusterConfig config;
  config.num_servers = spec.nodes;
  config.nodes_per_rack = spec.nodes_per_rack;
  config.server = server;
  config.nic = NicLinkSpec(spec.nic_gbps);
  config.rack = RackLinkSpec(spec.rack_gbps);
  return config;
}

}  // namespace harmony
