// Report serialization: CSV (for plotting pipelines) and structured JSON (the
// observability export behind `harmony_sim --json`, schema in DESIGN.md §8).
#ifndef HARMONY_SRC_RUNTIME_REPORT_IO_H_
#define HARMONY_SRC_RUNTIME_REPORT_IO_H_

#include <string>

#include "src/runtime/metrics.h"

namespace harmony {

// One CSV row per iteration: iteration, start, end, duration, swap_in, swap_out, p2p,
// collective, plus per-class swap-in/out columns.
std::string ReportToCsv(const RunReport& report);

// Full structured export: run header, per-device wall-clock decomposition, per-link and
// per-node byte accounting, per-tensor churn, per-iteration stats, and the distilled
// bottleneck attribution. Deterministic byte-for-byte: fixed key order, integers as
// integers, strings and doubles through util/json.h's JsonString / JsonNumber — the
// explain golden test byte-compares this output. Parse it back with util/json.h.
std::string ReportToJson(const RunReport& report);

}  // namespace harmony

#endif  // HARMONY_SRC_RUNTIME_REPORT_IO_H_
