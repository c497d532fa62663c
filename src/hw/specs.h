// Hardware specifications for the simulated commodity server.
//
// The numbers model the paper's testbed: NVIDIA GTX 1080Ti GPUs (11 GB, ~11.3 fp32 TFLOP/s)
// behind PCIe 3.0 switches with an oversubscribed x16 uplink to host memory. Specs are plain
// data; the behavioural model lives in topology.h / transfer_manager.h.
#ifndef HARMONY_SRC_HW_SPECS_H_
#define HARMONY_SRC_HW_SPECS_H_

#include <string>

#include "src/util/units.h"

namespace harmony {

struct GpuSpec {
  std::string name;
  Bytes memory_bytes = 0;
  // Peak fp32 rate and an achieved-efficiency derate (DNN kernels rarely exceed ~45% of
  // peak on Pascal-class parts).
  double peak_flops = 0.0;
  double efficiency = 1.0;

  double effective_flops() const { return peak_flops * efficiency; }
};

struct LinkSpec {
  std::string name;
  double bandwidth_bytes_per_sec = 0.0;
  double latency_sec = 0.0;
};

// ---- Presets ------------------------------------------------------------------------------

// GTX 1080Ti: 11 GB GDDR5X, 11.3 TFLOP/s fp32 peak.
inline GpuSpec Gtx1080Ti() {
  return GpuSpec{"GTX1080Ti", 11 * kGiB, TFlops(11.3), 0.40};
}

// V100-class part, used by capacity what-if experiments.
inline GpuSpec TeslaV100() {
  return GpuSpec{"V100-16GB", 16 * kGiB, TFlops(15.7), 0.50};
}

// A deliberately tiny GPU for unit tests and the Fig. 4 toy example (capacities are set per
// test; this just provides sane compute numbers).
inline GpuSpec TestGpu(Bytes memory_bytes, double flops = TFlops(1.0)) {
  return GpuSpec{"TestGPU", memory_bytes, flops, 1.0};
}

// PCIe 3.0 x16: 15.75 GB/s raw, ~12.8 GB/s achievable for large DMA transfers.
inline LinkSpec PcieGen3x16() {
  return LinkSpec{"PCIe3-x16", GBps(12.8), 5e-6};
}

// NVLink-class link, for what-if topologies (the paper's commodity server has none).
inline LinkSpec NvLink2() {
  return LinkSpec{"NVLink2", GBps(25.0), 2e-6};
}

// Ethernet-class link for multi-server topologies (Sec. 4 of the paper): the per-node NIC
// tier (host <-> NIC <-> top-of-rack switch).
inline LinkSpec Ethernet25G() {
  return LinkSpec{"25GbE", GBps(3.1), 20e-6};
}

// Datacenter aggregation link: the rack tier (top-of-rack switch <-> spine).
inline LinkSpec Ethernet100G() {
  return LinkSpec{"100GbE", GBps(12.5), 25e-6};
}

}  // namespace harmony

#endif  // HARMONY_SRC_HW_SPECS_H_
