// Chrome-trace (chrome://tracing / Perfetto) export of an executed schedule.
//
// Each device renders as a track; compute tasks become duration events with the task's
// debug name, colored by kind via category. Open the emitted JSON in chrome://tracing or
// https://ui.perfetto.dev to inspect pipeline overlap, bubbles, and swap stalls visually.
#ifndef HARMONY_SRC_RUNTIME_TRACE_EXPORT_H_
#define HARMONY_SRC_RUNTIME_TRACE_EXPORT_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "src/graph/task.h"
#include "src/runtime/engine.h"

namespace harmony {

// Renders the timeline as a Chrome trace JSON document (trace-event format, "X" events,
// microsecond timestamps).
std::string TimelineToChromeTrace(const Plan& plan, const std::vector<TaskTrace>& timeline);

// Same, plus one counter track ("ph":"C") per link showing active-flow queue depth over
// time, sourced from report->link_queue_timeline (present when the run had record_timeline
// set). Passing nullptr — or a report without timelines — degrades to the plain export.
std::string TimelineToChromeTrace(const Plan& plan, const std::vector<TaskTrace>& timeline,
                                  const RunReport* report);

}  // namespace harmony

#endif  // HARMONY_SRC_RUNTIME_TRACE_EXPORT_H_
