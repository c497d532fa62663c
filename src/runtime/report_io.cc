#include "src/runtime/report_io.h"

#include <sstream>
#include <utility>

#include "src/util/json.h"
#include "src/util/table.h"

namespace harmony {

namespace {

// `{"kSwapIn": 123, ...}` with zero-valued kinds omitted (keeps tensor-heavy exports
// readable); emits `{}` when nothing flowed.
std::string BytesByKindObject(const Bytes by_kind[kNumTransferKinds]) {
  std::string out = "{";
  bool first = true;
  for (int k = 0; k < kNumTransferKinds; ++k) {
    if (by_kind[k] == 0) {
      continue;
    }
    if (!first) {
      out += ", ";
    }
    first = false;
    out += JsonString(TransferKindName(static_cast<TransferKind>(k)));
    out += ": ";
    out += std::to_string(by_kind[k]);
  }
  out += "}";
  return out;
}

}  // namespace

std::string ReportToCsv(const RunReport& report) {
  std::ostringstream os;
  CsvWriter csv(os);
  std::vector<std::string> header = {"iteration", "start_s",   "end_s",      "duration_s",
                                     "swap_in",   "swap_out",  "p2p_in",     "collective"};
  for (int c = 0; c < kNumTensorClasses; ++c) {
    header.push_back(std::string("in_") + TensorClassName(static_cast<TensorClass>(c)));
    header.push_back(std::string("out_") + TensorClassName(static_cast<TensorClass>(c)));
  }
  csv.WriteRow(header);
  for (const IterationStats& it : report.iterations) {
    std::vector<std::string> row = {
        std::to_string(it.iteration),        std::to_string(it.start_time),
        std::to_string(it.end_time),         std::to_string(it.duration()),
        std::to_string(it.swap_in),          std::to_string(it.swap_out),
        std::to_string(it.p2p_in),           std::to_string(it.collective_bytes)};
    for (int c = 0; c < kNumTensorClasses; ++c) {
      row.push_back(std::to_string(it.swap_in_by_class[c]));
      row.push_back(std::to_string(it.swap_out_by_class[c]));
    }
    csv.WriteRow(row);
  }
  return os.str();
}

std::string ReportToJson(const RunReport& report) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"harmony-run-report\",\n";
  os << "  \"version\": 2,\n";
  os << "  \"scheme\": " << JsonString(report.scheme) << ",\n";
  os << "  \"makespan_s\": " << JsonNumber(report.makespan) << ",\n";
  os << "  \"samples_per_iteration\": " << report.samples_per_iteration << ",\n";
  os << "  \"failed\": " << (report.failed ? "true" : "false") << ",\n";
  if (report.failed) {
    os << "  \"failure\": {\"kind\": " << JsonString(report.failure_kind)
       << ", \"device\": " << report.failed_device
       << ", \"time_s\": " << JsonNumber(report.failure_time) << "},\n";
  }
  // Schema v2: always present (zeros on a failure-free run) so consumers can key on the
  // fields without probing. Field order is fixed for byte-stable exports.
  os << "  \"resilience\": {\"flows_retried\": " << report.flows_retried
     << ", \"retry_exhausted\": " << report.retry_exhausted
     << ", \"retry_backoff_s\": " << JsonNumber(report.retry_backoff_sec)
     << ", \"straggler_device\": " << report.straggler_device
     << ", \"degraded_s\": " << JsonNumber(report.degraded_sec)
     << ", \"device_degraded_s\": [";
  for (std::size_t d = 0; d < report.device_degraded_sec.size(); ++d) {
    os << (d > 0 ? ", " : "") << JsonNumber(report.device_degraded_sec[d]);
  }
  os << "], \"ckpt_generations\": " << report.ckpt_generations
     << ", \"ckpt_verified_ok\": " << report.ckpt_verified_ok
     << ", \"ckpt_corrupt_detected\": " << report.ckpt_corrupt_detected << "},\n";
  os << "  \"totals\": {\"swap_in_bytes\": " << report.total_swap_in
     << ", \"swap_out_bytes\": " << report.total_swap_out
     << ", \"p2p_bytes\": " << report.total_p2p
     << ", \"collective_bytes\": " << report.total_collective << "},\n";

  os << "  \"devices\": [\n";
  for (int d = 0; d < report.num_devices(); ++d) {
    const auto i = static_cast<std::size_t>(d);
    os << "    {\"device\": " << d
       << ", \"busy_s\": " << JsonNumber(report.device_busy[i])
       << ", \"swap_in_bytes\": " << report.device_swap_in[i]
       << ", \"swap_out_bytes\": " << report.device_swap_out[i]
       << ", \"high_water_bytes\": " << report.device_high_water[i]
       << ", \"evictions\": " << report.device_evictions[i]
       << ", \"defrags\": " << report.device_defrags[i];
    if (i < report.device_time.size()) {
      const DeviceTimeBreakdown& time = report.device_time[i];
      os << ",\n     \"time_breakdown_s\": {";
      for (int c = 0; c < kNumTimeClasses; ++c) {
        if (c > 0) {
          os << ", ";
        }
        os << JsonString(TimeClassName(static_cast<TimeClass>(c))) << ": "
           << JsonNumber(time.seconds[c]);
      }
      os << "},\n     \"dominant_stall\": " << JsonString(TimeClassName(time.DominantStall()));
    }
    os << "}" << (d + 1 < report.num_devices() ? "," : "") << "\n";
  }
  os << "  ],\n";

  os << "  \"links\": [\n";
  for (std::size_t l = 0; l < report.links.size(); ++l) {
    const RunReport::LinkUsage& link = report.links[l];
    os << "    {\"name\": " << JsonString(link.name) << ", \"bytes\": " << link.bytes
       << ", \"busy_s\": " << JsonNumber(link.busy_time)
       << ", \"utilization\": " << JsonNumber(link.utilization)
       << ", \"avg_queue_depth\": " << JsonNumber(link.avg_queue_depth)
       << ", \"max_queue_depth\": " << link.max_queue_depth
       << ", \"flows\": " << link.flows
       << ", \"bytes_by_kind\": " << BytesByKindObject(link.bytes_by_kind) << "}"
       << (l + 1 < report.links.size() ? "," : "") << "\n";
  }
  os << "  ],\n";

  // Tier split only for multi-node machines: the key is absent on single-server reports,
  // so every pre-cluster JSON (and its golden copies) stays byte-identical.
  if (!report.tiers.empty()) {
    os << "  \"tiers\": [\n";
    for (std::size_t t = 0; t < report.tiers.size(); ++t) {
      const RunReport::TierUsage& tier = report.tiers[t];
      os << "    {\"name\": " << JsonString(tier.name) << ", \"bytes\": " << tier.bytes
         << ", \"busy_s\": " << JsonNumber(tier.busy_time) << ", \"flows\": " << tier.flows
         << ", \"bytes_by_kind\": " << BytesByKindObject(tier.bytes_by_kind) << "}"
         << (t + 1 < report.tiers.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
  }

  os << "  \"node_io\": [\n";
  for (std::size_t n = 0; n < report.node_io.size(); ++n) {
    const RunReport::NodeIo& node = report.node_io[n];
    os << "    {\"node\": " << JsonString(node.node)
       << ", \"in_by_kind\": " << BytesByKindObject(node.in_by_kind)
       << ", \"out_by_kind\": " << BytesByKindObject(node.out_by_kind) << "}"
       << (n + 1 < report.node_io.size() ? "," : "") << "\n";
  }
  os << "  ],\n";

  os << "  \"tensor_churn\": [\n";
  for (std::size_t t = 0; t < report.tensor_churn.size(); ++t) {
    const RunReport::TensorChurn& churn = report.tensor_churn[t];
    os << "    {\"tensor\": " << churn.tensor << ", \"name\": " << JsonString(churn.name)
       << ", \"class\": " << JsonString(churn.cls) << ", \"bytes\": " << churn.bytes
       << ", \"evictions\": " << churn.evictions
       << ", \"clean_drops\": " << churn.clean_drops
       << ", \"write_backs\": " << churn.write_backs
       << ", \"swap_ins\": " << churn.swap_ins << ", \"p2p_ins\": " << churn.p2p_ins
       << ", \"refetches\": " << churn.refetches()
       << ", \"swap_in_bytes\": " << churn.swap_in_bytes
       << ", \"swap_out_bytes\": " << churn.swap_out_bytes
       << ", \"p2p_in_bytes\": " << churn.p2p_in_bytes
       << ", \"clean_drop_bytes\": " << churn.clean_drop_bytes << "}"
       << (t + 1 < report.tensor_churn.size() ? "," : "") << "\n";
  }
  os << "  ],\n";

  os << "  \"iterations\": [\n";
  for (std::size_t it = 0; it < report.iterations.size(); ++it) {
    const IterationStats& stats = report.iterations[it];
    os << "    {\"iteration\": " << stats.iteration
       << ", \"start_s\": " << JsonNumber(stats.start_time)
       << ", \"end_s\": " << JsonNumber(stats.end_time)
       << ", \"swap_in_bytes\": " << stats.swap_in
       << ", \"swap_out_bytes\": " << stats.swap_out
       << ", \"p2p_bytes\": " << stats.p2p_in
       << ", \"collective_bytes\": " << stats.collective_bytes << "}"
       << (it + 1 < report.iterations.size() ? "," : "") << "\n";
  }
  os << "  ],\n";

  const AttributionReport attribution = Attribute(report);
  os << "  \"attribution\": {\n";
  os << "    \"summary\": " << JsonString(attribution.Summary()) << ",\n";
  os << "    \"worst_device\": " << attribution.worst_device << ",\n";
  os << "    \"devices\": [";
  for (std::size_t d = 0; d < attribution.devices.size(); ++d) {
    const AttributionReport::DeviceStall& stall = attribution.devices[d];
    os << (d > 0 ? ", " : "") << "{\"device\": " << stall.device
       << ", \"dominant_stall\": " << JsonString(TimeClassName(stall.dominant))
       << ", \"seconds\": " << JsonNumber(stall.seconds)
       << ", \"fraction\": " << JsonNumber(stall.fraction) << "}";
  }
  os << "],\n";
  os << "    \"bottleneck_link\": {\"name\": " << JsonString(attribution.bottleneck_link)
     << ", \"utilization\": " << JsonNumber(attribution.bottleneck_utilization)
     << ", \"avg_queue_depth\": " << JsonNumber(attribution.bottleneck_queue_depth)
     << ", \"bytes\": " << attribution.bottleneck_bytes << "},\n";
  os << "    \"top_churn\": [";
  for (std::size_t t = 0; t < attribution.top_churn.size(); ++t) {
    const RunReport::TensorChurn& churn = attribution.top_churn[t];
    os << (t > 0 ? ", " : "") << "{\"tensor\": " << churn.tensor
       << ", \"name\": " << JsonString(churn.name)
       << ", \"moved_bytes\": " << churn.moved_bytes()
       << ", \"refetches\": " << churn.refetches() << "}";
  }
  os << "]\n";
  os << "  }\n";
  os << "}\n";
  return std::move(os).str();
}

}  // namespace harmony
