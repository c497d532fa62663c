// Cluster scale-out: swap volume and bottleneck attribution at 8 / 64 / 512 GPUs.
//
// Harmony's pitch survives scale-out only if (a) the per-GPU swap traffic the paper
// measures on one commodity box stays flat as data parallelism spans nodes — swaps are
// host-local by construction, so the PCIe tier should carry the same bytes per GPU at any
// fleet size — and (b) the added cost shows up where the hardware says it must: in the
// hierarchical all-reduce, on the NIC and rack tiers, shifting the bottleneck attribution
// from swap links toward collective stalls as nodes multiply.
//
// Three scale points on the same per-node shape (4 GPUs per server, DP across the fleet):
//   8 GPUs   =   2 nodes, one rack        (intra-node ring + 2-node exchange)
//   64 GPUs  =  16 nodes, 8 per rack      (ToR tier engaged)
//   512 GPUs = 128 nodes, 16 per rack     (8 racks behind the spine)
// Results go to stdout as a table and to BENCH_cluster.json for tooling.
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_json.h"
#include "src/core/session.h"
#include "src/graph/model_zoo.h"
#include "src/runtime/metrics.h"
#include "src/util/check.h"
#include "src/util/table.h"

namespace {

struct ScalePoint {
  int nodes = 0;
  int nodes_per_rack = 0;
  int racks = 0;
  int gpus = 0;
  double steady_iter_s = 0.0;
  double throughput = 0.0;       // samples / s
  double swap_per_gpu = 0.0;     // steady swap bytes per iteration per GPU
  double pcie_bytes = 0.0;       // whole-run tier totals
  double nic_bytes = 0.0;
  double rack_bytes = 0.0;
  double nic_swap = 0.0;         // must stay zero: swaps never leave the host
  double rack_swap = 0.0;
  double collective_per_gpu = 0.0;  // whole-run collective bytes / GPU (all tiers)
  std::string worst_stall;       // dominant stall class on the worst device
  std::string hot_link;          // top contended link
  double hot_util = 0.0;
};

}  // namespace

int main() {
  using namespace harmony;
  std::cout << "=== Cluster scale-out: swap volume and bottleneck attribution at 8 / 64 / "
               "512 GPUs ===\n\n";

  // Swap-bound per node on purpose: full DP replicas that outsize the 1.5 GiB test GPU, so
  // the single-box swap churn the paper measures is present at every scale point and any
  // scale-dependent growth is attributable to the network tiers alone.
  UniformModelConfig mc;
  mc.name = "uniform-scaleout-bench";
  mc.num_layers = 8;
  mc.param_bytes = 128 * kMiB;
  mc.act_bytes_per_sample = 8 * kMiB;
  mc.optimizer_state_factor = 2.0;
  mc.fwd_flops_per_sample = 1e11;
  const Model model = MakeUniformModel(mc);
  std::cout << model.Summary() << "\n";

  SessionConfig base;
  base.server.num_gpus = 4;
  base.server.gpus_per_switch = 4;
  base.server.gpu = TestGpu(1536 * kMiB, TFlops(2.0));
  base.scheme = Scheme::kHarmonyDp;
  base.microbatches = 2;
  base.microbatch_size = 2;
  base.iterations = 3;

  struct Shape {
    int nodes;
    int nodes_per_rack;
  };
  const std::vector<Shape> shapes = {{2, 0}, {16, 8}, {128, 16}};

  std::vector<ScalePoint> points;
  for (const Shape& shape : shapes) {
    SessionConfig config = base;
    config.num_nodes = shape.nodes;
    config.nodes_per_rack = shape.nodes_per_rack;
    StatusOr<PreparedSession> prepared = PrepareSession(model, config);
    HCHECK(prepared.ok()) << prepared.status().ToString();
    const SessionResult result = RunTraining(std::move(prepared).value());
    const RunReport& report = result.report;

    ScalePoint p;
    p.nodes = shape.nodes;
    p.nodes_per_rack = shape.nodes_per_rack == 0 ? shape.nodes : shape.nodes_per_rack;
    p.racks = (shape.nodes + p.nodes_per_rack - 1) / p.nodes_per_rack;
    p.gpus = config.total_gpus();
    p.steady_iter_s = report.steady_iteration_time();
    p.throughput = report.steady_throughput();
    p.swap_per_gpu =
        static_cast<double>(report.steady_swap_total()) / static_cast<double>(p.gpus);
    HCHECK(!report.tiers.empty()) << "multi-node run produced no tier rollup";
    for (const RunReport::TierUsage& tier : report.tiers) {
      const double swap = static_cast<double>(tier.of(TransferKind::kSwapIn) +
                                              tier.of(TransferKind::kSwapOut));
      if (tier.name == "pcie") {
        p.pcie_bytes = static_cast<double>(tier.bytes);
      } else if (tier.name == "nic") {
        p.nic_bytes = static_cast<double>(tier.bytes);
        p.nic_swap = swap;
      } else if (tier.name == "rack") {
        p.rack_bytes = static_cast<double>(tier.bytes);
        p.rack_swap = swap;
      }
    }
    p.collective_per_gpu =
        static_cast<double>(report.total_collective) / static_cast<double>(p.gpus);
    const AttributionReport attribution = Attribute(report);
    if (attribution.worst_device >= 0) {
      p.worst_stall = TimeClassName(
          attribution.devices[static_cast<std::size_t>(attribution.worst_device)].dominant);
    }
    p.hot_link = attribution.bottleneck_link;
    p.hot_util = attribution.bottleneck_utilization;
    points.push_back(p);

    // Hard trend gates (deterministic sim, so these are exact, not statistical):
    //   - swaps never leave the host: the NIC and rack tiers carry zero swap bytes;
    //   - the inter-node exchange actually ran: NIC tier carries collective traffic.
    HCHECK(p.nic_swap == 0.0 && p.rack_swap == 0.0)
        << "swap bytes escaped the PCIe tier at " << p.gpus << " GPUs";
    HCHECK(p.nic_bytes > 0.0) << "no inter-node collective traffic at " << p.gpus << " GPUs";
    if (p.racks > 1) {
      HCHECK(p.rack_bytes > 0.0) << "multi-rack run kept the spine idle at " << p.gpus
                                 << " GPUs";
    }
    std::printf("%4d GPUs (%3d nodes / %d racks): steady iter %.3f s, swap/GPU/iter %s, "
                "collective/GPU %s, hot link %s (%.0f%%)\n",
                p.gpus, p.nodes, p.racks, p.steady_iter_s,
                FormatBytes(static_cast<Bytes>(p.swap_per_gpu)).c_str(),
                FormatBytes(static_cast<Bytes>(p.collective_per_gpu)).c_str(),
                p.hot_link.c_str(), p.hot_util * 100.0);
  }

  // The paper's single-box story must survive the fleet: per-GPU swap volume is set by the
  // model-to-GPU-memory ratio, not the fleet size, so the three scale points agree within
  // 10% (boundary iterations differ slightly through collective-stall overlap).
  for (const ScalePoint& p : points) {
    HCHECK(p.swap_per_gpu > 0.9 * points[0].swap_per_gpu &&
           p.swap_per_gpu < 1.1 * points[0].swap_per_gpu)
        << "per-GPU swap volume drifted with scale: " << p.swap_per_gpu << " vs "
        << points[0].swap_per_gpu << " at " << p.gpus << " GPUs";
  }

  std::cout << "\n";
  TablePrinter table({"GPUs", "nodes", "racks", "steady iter (s)", "samples/s",
                      "swap/GPU/iter", "collective/GPU", "nic bytes", "rack bytes",
                      "worst stall", "hot link", "util"});
  for (const ScalePoint& p : points) {
    table.Row()
        .Cell(p.gpus)
        .Cell(p.nodes)
        .Cell(p.racks)
        .Cell(p.steady_iter_s, 3)
        .Cell(p.throughput, 2)
        .Cell(FormatBytes(static_cast<Bytes>(p.swap_per_gpu)))
        .Cell(FormatBytes(static_cast<Bytes>(p.collective_per_gpu)))
        .Cell(FormatBytes(static_cast<Bytes>(p.nic_bytes)))
        .Cell(FormatBytes(static_cast<Bytes>(p.rack_bytes)))
        .Cell(p.worst_stall)
        .Cell(p.hot_link)
        .Cell(p.hot_util, 2);
  }
  std::cout << "--- scale-out ladder (4 GPUs per node, Harmony-DP, 25 GbE NIC / 100 GbE "
               "rack) ---\n"
            << table.ToString() << "\n";

  std::string json;
  Appendf(&json, "{\n  \"ladder\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ScalePoint& p = points[i];
    Appendf(&json,
            "    {\"gpus\": %d, \"nodes\": %d, \"racks\": %d, "
            "\"steady_iter_s\": %.6f, \"throughput_samples_per_s\": %.6f, "
            "\"swap_bytes_per_gpu_per_iter\": %.0f, "
            "\"collective_bytes_per_gpu\": %.0f, \"pcie_bytes\": %.0f, "
            "\"nic_bytes\": %.0f, \"rack_bytes\": %.0f, \"nic_swap_bytes\": %.0f, "
            "\"rack_swap_bytes\": %.0f, \"worst_stall\": \"%s\", "
            "\"hot_link\": \"%s\", \"hot_link_utilization\": %.6f}%s\n",
            p.gpus, p.nodes, p.racks, p.steady_iter_s, p.throughput, p.swap_per_gpu,
            p.collective_per_gpu, p.pcie_bytes, p.nic_bytes, p.rack_bytes, p.nic_swap,
            p.rack_swap, p.worst_stall.c_str(), p.hot_link.c_str(), p.hot_util,
            i + 1 < points.size() ? "," : "");
  }
  Appendf(&json, "  ]\n}\n");
  return WriteBenchJson("BENCH_cluster.json", json);
}
