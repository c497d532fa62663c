#include "src/runtime/trace_export.h"

#include <algorithm>
#include <cstdio>

#include "src/util/json.h"

namespace harmony {
namespace {

const char* CategoryOf(TaskKind kind) {
  switch (kind) {
    case TaskKind::kForward:
      return "forward";
    case TaskKind::kLoss:
      return "loss";
    case TaskKind::kBackward:
      return "backward";
    case TaskKind::kUpdate:
      return "update";
    case TaskKind::kAllReduce:
      return "allreduce";
  }
  return "other";
}

}  // namespace

std::string TimelineToChromeTrace(const Plan& plan, const std::vector<TaskTrace>& timeline) {
  return TimelineToChromeTrace(plan, timeline, nullptr);
}

std::string TimelineToChromeTrace(const Plan& plan, const std::vector<TaskTrace>& timeline,
                                  const RunReport* report) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buffer[128];
  for (const TaskTrace& trace : timeline) {
    const Task& task = plan.tasks[static_cast<std::size_t>(trace.task)];
    if (!first) {
      out += ",";
    }
    first = false;
    out += "{\"name\":";
    out += JsonString(task.DebugName());
    out += ",\"cat\":\"";
    out += CategoryOf(task.kind);
    // pid = 0 (one process), tid = device index; timestamps in microseconds.
    std::snprintf(buffer, sizeof(buffer),
                  "\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,", task.device,
                  trace.start * 1e6, (trace.end - trace.start) * 1e6);
    out += buffer;
    std::snprintf(buffer, sizeof(buffer),
                  "\"args\":{\"iteration\":%d,\"microbatch\":%d,\"layers\":\"[%d,%d)\"}}",
                  task.iteration, task.microbatch, task.layer_begin, task.layer_end);
    out += buffer;
  }
  // Thread name metadata so tracks read "gpu0", "gpu1", ...
  for (int d = 0; d < plan.num_devices(); ++d) {
    std::snprintf(buffer, sizeof(buffer),
                  ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,"
                  "\"args\":{\"name\":\"gpu%d\"}}",
                  d, d);
    out += buffer;
  }
  // Link queue-depth counter tracks (one per link with traffic), under their own pid so
  // Perfetto groups them away from the device tracks.
  if (report != nullptr && !report->link_queue_timeline.empty()) {
    const std::size_t num_links =
        std::min(report->links.size(), report->link_queue_timeline.size());
    for (std::size_t l = 0; l < num_links; ++l) {
      const auto& points = report->link_queue_timeline[l];
      if (points.empty()) {
        continue;
      }
      const std::string name = JsonString("queue " + report->links[l].name);
      for (const RunReport::LinkQueuePoint& point : points) {
        out += ",{\"name\":";
        out += name;
        std::snprintf(buffer, sizeof(buffer),
                      ",\"ph\":\"C\",\"pid\":1,\"ts\":%.3f,\"args\":{\"flows\":%d}}",
                      point.time * 1e6, point.depth);
        out += buffer;
      }
    }
    out +=
        ",{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
        "\"args\":{\"name\":\"links\"}}";
  }
  out += "]}";
  return out;
}

}  // namespace harmony
