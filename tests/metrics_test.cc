// Observability-layer property tests (DESIGN.md §8).
//
// The attribution invariants hold *by construction* — the engine accumulates stall spans
// between lifecycle points it already passes through, and the TransferManager/MemorySystem
// count bytes at the same sites as the pre-existing counters — so these tests sweep every
// scheduler over seeded random models at minimal feasible capacity and assert the two
// conservation laws exactly:
//   time:  per device, compute + five stall classes == makespan, and the compute bucket is
//          bit-for-bit the historical device_busy counter;
//   bytes: the TransferManager's endpoint-indexed node accounting equals the
//          MemorySystem's class-indexed counters, per-link kind splits sum to the link
//          totals, and per-tensor churn sums reproduce the device totals.
// Plus deterministic unit tests for the attribution distillation and the JSON round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "src/core/session.h"
#include "src/graph/model_zoo.h"
#include "src/hw/transfer_manager.h"
#include "src/runtime/report_io.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "tests/test_models.h"

namespace harmony {
namespace {

// ---- seeded conservation sweep across all five schedulers -------------------------------------

// Runs one seeded config; scheme is forced from the seed so 25 seeds cover every scheduler
// five times (the issue's acceptance floor is 20 configs x 5 schemes).
class ConservationTest : public ::testing::TestWithParam<int> {
 protected:
  SessionResult RunSeed(int seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 62989 + 11);
    const Model model = test_models::RandomUniformModel(rng, test_models::ChurnModelRanges());
    config_ = test_models::RandomChurnSession(rng, model.num_layers());
    config_.audit_eviction = false;
    config_.scheme = test_models::kAllSchemes[seed % test_models::kNumSchemes];
    config_.record_timeline = seed % 3 == 0;  // exercise the queue timelines on a third
    test_models::FitMinimalCapacity(model, &config_);
    return RunTraining(model, config_);
  }

  SessionConfig config_;
};

TEST_P(ConservationTest, TimeBucketsSumToMakespanOnEveryDevice) {
  const SessionResult result = RunSeed(GetParam());
  const RunReport& report = result.report;
  SCOPED_TRACE(report.scheme);
  ASSERT_EQ(report.device_time.size(), static_cast<std::size_t>(report.num_devices()));
  for (int d = 0; d < report.num_devices(); ++d) {
    const DeviceTimeBreakdown& time = report.device_time[static_cast<std::size_t>(d)];
    for (int c = 0; c < kNumTimeClasses; ++c) {
      EXPECT_GE(time.seconds[c], 0.0)
          << "gpu" << d << " " << TimeClassName(static_cast<TimeClass>(c));
    }
    // The spans telescope across the task lifecycle, so the sum reproduces the makespan up
    // to FP accumulation error.
    EXPECT_NEAR(time.total(), report.makespan, 1e-9 * std::max(1.0, report.makespan))
        << "gpu" << d;
    // The compute bucket and device_busy accumulate the identical per-task durations in
    // the identical order: bitwise equality, not just closeness.
    EXPECT_DOUBLE_EQ(time.of(TimeClass::kCompute),
                     report.device_busy[static_cast<std::size_t>(d)])
        << "gpu" << d;
  }
}

TEST_P(ConservationTest, NodeIoMatchesMemoryCountersAndLinkKindsSumExactly) {
  const SessionResult result = RunSeed(GetParam());
  const RunReport& report = result.report;
  SCOPED_TRACE(report.scheme);

  // Endpoint-indexed (TransferManager) vs class-indexed (MemoryCounters) accounting of the
  // same traffic: per device, swap-in/out bytes must agree exactly.
  std::map<std::string, const RunReport::NodeIo*> by_name;
  for (const RunReport::NodeIo& node : report.node_io) {
    by_name[node.node] = &node;
  }
  Bytes p2p_in_total = 0;
  Bytes collective_in_total = 0;
  for (int d = 0; d < report.num_devices(); ++d) {
    const auto it = by_name.find("gpu" + std::to_string(d));
    ASSERT_NE(it, by_name.end()) << "gpu" << d << " missing from node_io";
    const RunReport::NodeIo& io = *it->second;
    EXPECT_EQ(io.in_of(TransferKind::kSwapIn),
              report.device_swap_in[static_cast<std::size_t>(d)])
        << "gpu" << d;
    EXPECT_EQ(io.out_of(TransferKind::kSwapOut),
              report.device_swap_out[static_cast<std::size_t>(d)])
        << "gpu" << d;
    p2p_in_total += io.in_of(TransferKind::kPeerToPeer);
    collective_in_total += io.in_of(TransferKind::kCollective);
  }
  EXPECT_EQ(p2p_in_total, report.total_p2p);
  EXPECT_EQ(collective_in_total, report.total_collective);

  // The host sees the mirror image of the device swap totals.
  const auto host = by_name.find("host");
  ASSERT_NE(host, by_name.end());
  EXPECT_EQ(host->second->out_of(TransferKind::kSwapIn), report.total_swap_in);
  EXPECT_EQ(host->second->in_of(TransferKind::kSwapOut), report.total_swap_out);

  // Per link, the kind split sums to the carried total by construction (both are bumped at
  // flow completion), and the time integrals respect busy <= makespan, flow-sec >= busy.
  for (const RunReport::LinkUsage& link : report.links) {
    Bytes kind_sum = 0;
    for (int k = 0; k < kNumTransferKinds; ++k) {
      kind_sum += link.bytes_by_kind[k];
    }
    EXPECT_EQ(kind_sum, link.bytes) << link.name;
    EXPECT_LE(link.busy_time, report.makespan * (1.0 + 1e-9)) << link.name;
    EXPECT_GE(link.avg_queue_depth * report.makespan,
              link.busy_time * (1.0 - 1e-9))
        << link.name;
    EXPECT_GE(link.flows, link.bytes > 0 ? 1 : 0) << link.name;
    EXPECT_GE(link.max_queue_depth, link.flows > 0 ? 1 : 0) << link.name;
  }
}

TEST_P(ConservationTest, TensorChurnSumsReproduceDeviceTotals) {
  const SessionResult result = RunSeed(GetParam());
  const RunReport& report = result.report;
  SCOPED_TRACE(report.scheme);

  Bytes swap_in = 0, swap_out = 0, p2p_in = 0;
  std::int64_t evictions = 0;
  TensorId last = -1;
  for (const RunReport::TensorChurn& churn : report.tensor_churn) {
    EXPECT_GT(churn.tensor, last) << "tensor_churn not in ascending id order";
    last = churn.tensor;
    // Every eviction is a clean-drop or a write-back; write_backs may additionally include
    // staged peer write-backs, which are not evictions of the holder.
    EXPECT_GE(churn.evictions, churn.clean_drops) << churn.name;
    EXPECT_LE(churn.evictions, churn.clean_drops + churn.write_backs) << churn.name;
    swap_in += churn.swap_in_bytes;
    swap_out += churn.swap_out_bytes;
    p2p_in += churn.p2p_in_bytes;
    evictions += churn.evictions;
  }
  EXPECT_EQ(swap_in, report.total_swap_in);
  EXPECT_EQ(swap_out, report.total_swap_out);
  EXPECT_EQ(p2p_in, report.total_p2p);

  std::int64_t device_evictions = 0;
  for (const std::int64_t e : report.device_evictions) {
    device_evictions += e;
  }
  EXPECT_EQ(evictions, device_evictions);
}

TEST_P(ConservationTest, QueueTimelinesAreWellFormedWhenRecorded) {
  const SessionResult result = RunSeed(GetParam());
  const RunReport& report = result.report;
  if (!config_.record_timeline) {
    EXPECT_TRUE(report.link_queue_timeline.empty());
    return;
  }
  ASSERT_EQ(report.link_queue_timeline.size(), report.links.size());
  for (std::size_t l = 0; l < report.links.size(); ++l) {
    const auto& points = report.link_queue_timeline[l];
    int max_depth = 0;
    double prev_time = -1.0;
    for (const RunReport::LinkQueuePoint& point : points) {
      EXPECT_GE(point.depth, 0);
      EXPECT_GT(point.time, prev_time) << report.links[l].name
                                       << ": change points must be strictly increasing";
      prev_time = point.time;
      max_depth = std::max(max_depth, point.depth);
    }
    EXPECT_EQ(max_depth, report.links[l].max_queue_depth) << report.links[l].name;
    if (!points.empty()) {
      EXPECT_EQ(points.back().depth, 0)
          << report.links[l].name << ": all flows must have drained";
    }
  }
}

TEST_P(ConservationTest, AttributionIsWellFormedAndJsonRoundTrips) {
  const SessionResult result = RunSeed(GetParam());
  const RunReport& report = result.report;
  SCOPED_TRACE(report.scheme);

  const AttributionReport attribution = Attribute(report);
  ASSERT_EQ(attribution.devices.size(), static_cast<std::size_t>(report.num_devices()));
  ASSERT_GE(attribution.worst_device, 0);
  ASSERT_LT(attribution.worst_device, report.num_devices());
  for (const AttributionReport::DeviceStall& stall : attribution.devices) {
    EXPECT_GE(stall.fraction, 0.0);
    EXPECT_LE(stall.fraction, 1.0 + 1e-9);
    EXPECT_NE(stall.dominant, TimeClass::kCompute);
  }
  EXPECT_FALSE(attribution.Summary().empty());
  EXPECT_NE(attribution.Render().find("bottleneck attribution"), std::string::npos);

  // The JSON export parses and reproduces the headline numbers exactly (the writer emits
  // shortest-round-trip doubles).
  const StatusOr<JsonValue> parsed = ParseJson(ReportToJson(report));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& root = parsed.value();
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.Find("schema")->as_string(), "harmony-run-report");
  EXPECT_EQ(root.Find("scheme")->as_string(), report.scheme);
  EXPECT_DOUBLE_EQ(root.Find("makespan_s")->as_number(), report.makespan);
  const JsonValue* devices = root.Find("devices");
  ASSERT_NE(devices, nullptr);
  ASSERT_EQ(devices->as_array().size(), static_cast<std::size_t>(report.num_devices()));
  for (int d = 0; d < report.num_devices(); ++d) {
    const JsonValue* device = devices->At(static_cast<std::size_t>(d));
    const JsonValue* breakdown = device->Find("time_breakdown_s");
    ASSERT_NE(breakdown, nullptr) << "gpu" << d;
    double sum = 0.0;
    for (const auto& member : breakdown->as_object().members()) {
      sum += member.second.as_number();
    }
    EXPECT_NEAR(sum, report.makespan, 1e-9 * std::max(1.0, report.makespan)) << "gpu" << d;
    EXPECT_DOUBLE_EQ(device->Find("busy_s")->as_number(),
                     report.device_busy[static_cast<std::size_t>(d)]);
  }
  const JsonValue* attribution_json = root.Find("attribution");
  ASSERT_NE(attribution_json, nullptr);
  EXPECT_EQ(attribution_json->Find("worst_device")->as_number(), attribution.worst_device);
  EXPECT_EQ(attribution_json->Find("summary")->as_string(), attribution.Summary());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationTest, ::testing::Range(0, 25));

// ---- deterministic attribution unit tests -----------------------------------------------------

TEST(TimeClassTest, NamesAreStableAndDistinct) {
  std::vector<std::string> names;
  for (int c = 0; c < kNumTimeClasses; ++c) {
    names.emplace_back(TimeClassName(static_cast<TimeClass>(c)));
  }
  EXPECT_EQ(names[0], "compute");
  EXPECT_EQ(names[5], "idle");
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(TimeClassTest, DominantStallIgnoresComputeAndBreaksTiesOnEnumOrder) {
  DeviceTimeBreakdown time;
  time.of(TimeClass::kCompute) = 100.0;  // never dominant, however large
  time.of(TimeClass::kStallMemory) = 2.0;
  time.of(TimeClass::kIdle) = 2.0;  // tie: earlier enum value wins
  EXPECT_EQ(time.DominantStall(), TimeClass::kStallMemory);
  time.of(TimeClass::kStallDependency) = 3.0;
  EXPECT_EQ(time.DominantStall(), TimeClass::kStallDependency);
}

TEST(AttributionTest, PicksWorstDeviceHottestLinkAndTopChurn) {
  RunReport report;
  report.makespan = 10.0;
  report.device_busy = {8.0, 4.0};
  report.device_time.resize(2);
  report.device_time[0].of(TimeClass::kCompute) = 8.0;
  report.device_time[0].of(TimeClass::kStallTransfer) = 2.0;
  report.device_time[1].of(TimeClass::kCompute) = 4.0;
  report.device_time[1].of(TimeClass::kStallDependency) = 6.0;

  RunReport::LinkUsage cold;
  cold.name = "cold";
  cold.bytes = 100;
  cold.utilization = 0.1;
  RunReport::LinkUsage hot;
  hot.name = "hot";
  hot.bytes = 200;
  hot.utilization = 0.9;
  report.links = {cold, hot};

  RunReport::TensorChurn small;
  small.tensor = 1;
  small.name = "small";
  small.swap_in_bytes = 10;
  RunReport::TensorChurn big;
  big.tensor = 2;
  big.name = "big";
  big.swap_in_bytes = 500;
  big.swap_out_bytes = 500;
  report.tensor_churn = {small, big};

  const AttributionReport attribution = Attribute(report, /*top_tensors=*/1);
  EXPECT_EQ(attribution.worst_device, 1);  // 60% dependency stall beats 20% transfer
  EXPECT_EQ(attribution.devices[0].dominant, TimeClass::kStallTransfer);
  EXPECT_EQ(attribution.devices[1].dominant, TimeClass::kStallDependency);
  EXPECT_EQ(attribution.bottleneck_link, "hot");
  ASSERT_EQ(attribution.top_churn.size(), 1u);
  EXPECT_EQ(attribution.top_churn[0].name, "big");
  EXPECT_NE(attribution.Summary().find("gpu1"), std::string::npos);
}

TEST(AttributionTest, RefetchesCountArrivalsBeyondTheFirst) {
  RunReport::TensorChurn churn;
  EXPECT_EQ(churn.refetches(), 0);
  churn.swap_ins = 1;
  EXPECT_EQ(churn.refetches(), 0);  // first arrival is not churn
  churn.swap_ins = 3;
  churn.p2p_ins = 2;
  EXPECT_EQ(churn.refetches(), 4);
}

// Attribute selects its top churners without copying the whole list; the selection must
// equal the prefix of a full sort, ties on moved bytes included, for every cap.
TEST(AttributionTest, TopChurnEqualsThePrefixOfAFullSort) {
  const auto more_churn = [](const RunReport::TensorChurn& a, const RunReport::TensorChurn& b) {
    if (a.moved_bytes() != b.moved_bytes()) {
      return a.moved_bytes() > b.moved_bytes();
    }
    return a.tensor < b.tensor;
  };
  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 3);
    const int n = static_cast<int>(rng.NextBounded(40));
    RunReport report;
    for (int i = 0; i < n; ++i) {
      RunReport::TensorChurn churn;
      churn.tensor = static_cast<TensorId>(i);
      churn.name = "t" + std::to_string(i);
      // Moved bytes drawn from {0, 100, ..., 400}, split across the three directions: most
      // entries tie with several others.
      const Bytes moved = 100 * static_cast<Bytes>(rng.NextBounded(5));
      churn.swap_in_bytes = moved / 2;
      churn.swap_out_bytes = static_cast<Bytes>(rng.NextBounded(2)) * (moved - moved / 2);
      churn.p2p_in_bytes = moved - churn.swap_in_bytes - churn.swap_out_bytes;
      report.tensor_churn.push_back(std::move(churn));
    }
    // Any input order: swap random pairs.
    for (int i = 0; i + 1 < n; ++i) {
      const std::size_t j =
          static_cast<std::size_t>(i) + rng.NextBounded(static_cast<std::uint64_t>(n - i));
      std::swap(report.tensor_churn[static_cast<std::size_t>(i)], report.tensor_churn[j]);
    }
    std::vector<RunReport::TensorChurn> sorted = report.tensor_churn;
    std::sort(sorted.begin(), sorted.end(), more_churn);

    for (const int top : {-1, 0, 1, 5, n + 3}) {
      const std::vector<RunReport::TensorChurn> got = Attribute(report, top).top_churn;
      const std::size_t want =
          top < 0 ? sorted.size() : std::min(sorted.size(), static_cast<std::size_t>(top));
      ASSERT_EQ(got.size(), want) << "seed " << seed << ", top " << top;
      for (std::size_t k = 0; k < want; ++k) {
        EXPECT_EQ(got[k].tensor, sorted[k].tensor) << "seed " << seed << ", top " << top;
        EXPECT_EQ(got[k].name, sorted[k].name);
        EXPECT_EQ(got[k].moved_bytes(), sorted[k].moved_bytes());
      }
    }
  }
}

// ---- JSON parser unit tests -------------------------------------------------------------------

TEST(JsonTest, ParsesScalarsObjectsAndArrays) {
  const StatusOr<JsonValue> parsed =
      ParseJson(R"({"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x\ny"})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& root = parsed.value();
  EXPECT_EQ(root.Find("a")->as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(root.Find("a")->At(1)->as_number(), 2.5);
  EXPECT_DOUBLE_EQ(root.Find("a")->At(2)->as_number(), -300.0);
  EXPECT_TRUE(root.Find("b")->Find("c")->as_bool());
  EXPECT_TRUE(root.Find("b")->Find("d")->is_null());
  EXPECT_EQ(root.Find("e")->as_string(), "x\ny");
  EXPECT_EQ(root.Find("missing"), nullptr);
}

TEST(JsonTest, PreservesObjectMemberOrder) {
  const StatusOr<JsonValue> parsed = ParseJson(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_TRUE(parsed.ok());
  const auto& members = parsed.value().as_object().members();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(JsonTest, RejectsMalformedDocumentsWithOffsets) {
  for (const char* bad : {"{", "[1,]", "{\"a\":}", "tru", "1.2.3", "\"unterminated",
                          "{\"a\": 1} trailing", "[1 2]", "{'a': 1}"}) {
    const StatusOr<JsonValue> parsed = ParseJson(bad);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << bad;
    if (!parsed.ok()) {
      EXPECT_NE(parsed.status().message().find("offset"), std::string::npos);
    }
  }
}

TEST(JsonTest, DecodesEscapesIncludingUnicode) {
  const StatusOr<JsonValue> parsed = ParseJson(R"("tab\t quote\" back\\ A=\u0041")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().as_string(), "tab\t quote\" back\\ A=A");
}

}  // namespace
}  // namespace harmony
