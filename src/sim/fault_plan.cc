#include "src/sim/fault_plan.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "src/util/rng.h"
#include "src/util/spec_grammar.h"

namespace harmony {
namespace {

// Fixed-precision time/scale rendering so traces are byte-stable across platforms.
std::string FormatFixed(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  return buffer;
}

// Permanent effects (duration == 0 internally) render as the literal "inf" so that the
// grammar round-trips: a rendered plan re-parses to the identical plan, and a rendered
// positive duration can never collide with the permanent sentinel.
std::string FormatDuration(double duration) {
  return duration == 0.0 ? "inf" : FormatFixed(duration);
}

// Errors name the event they are in: "malformed fault event '<event>': <why> (at byte N;
// see --help for the --faults grammar)".
SpecGrammar EventGrammar(const std::string& event) {
  return SpecGrammar("malformed fault event '" + event + "'", "--faults grammar");
}

// Scales are multipliers in (0, 1]; zero, negative, out-of-range and NaN all reject.
StatusOr<double> ParseScale(const SpecGrammar& g, const SpecField& field) {
  return g.Number(field, "scale", "in (0, 1]", [](double v) { return v > 0.0 && v <= 1.0; });
}

// Durations are strictly positive seconds or the literal "inf" (permanent; internal
// sentinel 0.0). Zero, negative and NaN durations reject at parse time.
StatusOr<double> ParseDurationField(const SpecGrammar& g, const SpecField& field) {
  if (field.text == "inf") {
    return 0.0;
  }
  return g.Number(field, "duration", "> 0 seconds or 'inf' (permanent)",
                  [](double v) { return v > 0.0; });
}

// Parses "gpu<i>" or "host" (host encodes as gpu = -1).
StatusOr<int> ParseTargetField(const SpecGrammar& g, const SpecField& field) {
  if (field.text == "host") {
    return -1;
  }
  return g.Target(field, "gpu");
}

// Network-capable target for flow_flap / brownout: "gpu<i>", "host", "nic<i>" or "rack<i>".
// Exactly one of the out-params is set (host = gpu stays -1 with nic/rack -1).
Status ParseNetworkTargetField(const SpecGrammar& g, const SpecField& field, FaultEvent* e) {
  const bool nic = field.text.rfind("nic", 0) == 0;
  const bool rack = field.text.rfind("rack", 0) == 0;
  StatusOr<int> target = nic    ? g.Target(field, "nic")
                         : rack ? g.Target(field, "rack")
                                : ParseTargetField(g, field);
  HARMONY_RETURN_IF_ERROR(target.status());
  (nic ? e->nic : rack ? e->rack : e->gpu) = target.value();
  return Status::Ok();
}

StatusOr<FaultPlan> ParseRandSpec(const std::string& event, std::size_t offset) {
  const SpecGrammar g = EventGrammar(event);
  const auto positive = [](double v) { return v > 0.0; };
  RandomFaultOptions options;
  // event = "rand:key=value,key=value,..."
  HARMONY_RETURN_IF_ERROR(g.ParseKeyValues(
      SpecField{event.substr(5), offset + 5}, "rand option",
      {g.SeedKey("seed", &options.seed),
       g.NumberKey("mtbf", &options.mtbf, "a positive number", positive),
       g.NumberKey("horizon", &options.horizon, "a positive number", positive),
       g.IntKey("gpus", 1, INT_MAX, &options.num_gpus),
       g.IntKey("nics", 0, INT_MAX, &options.num_nics),
       g.IntKey("racks", 0, INT_MAX, &options.num_racks),
       g.BoolKey("fail", &options.allow_fail_stop), g.BoolKey("ext", &options.transient),
       g.BoolKey("ckpt", &options.ckpt_faults)}));
  return MakeRandomFaultPlan(options);
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kGpuFailStop:
      return "gpu-fail-stop";
    case FaultKind::kGpuLinkDegrade:
      return "gpu-link-degrade";
    case FaultKind::kHostLinkDegrade:
      return "host-link-degrade";
    case FaultKind::kHostMemPressure:
      return "host-mem-pressure";
    case FaultKind::kFlowFlap:
      return "flow-flap";
    case FaultKind::kLinkBrownout:
      return "link-brownout";
    case FaultKind::kGpuSlow:
      return "gpu-slow";
    case FaultKind::kCkptCorrupt:
      return "ckpt-corrupt";
  }
  return "unknown";
}

bool FaultEvent::network_scoped() const {
  return (kind == FaultKind::kFlowFlap || kind == FaultKind::kLinkBrownout) &&
         (nic >= 0 || rack >= 0);
}

bool FaultEvent::targets_gpu() const {
  return kind == FaultKind::kGpuFailStop || kind == FaultKind::kGpuLinkDegrade ||
         kind == FaultKind::kGpuSlow ||
         ((kind == FaultKind::kFlowFlap || kind == FaultKind::kLinkBrownout) && gpu >= 0 &&
          !network_scoped());
}

std::string FaultEvent::ToString() const {
  std::ostringstream os;
  const auto target = [this]() -> std::string {
    if (nic >= 0) {
      return "nic" + std::to_string(nic);
    }
    if (rack >= 0) {
      return "rack" + std::to_string(rack);
    }
    return gpu < 0 ? "host" : "gpu" + std::to_string(gpu);
  };
  switch (kind) {
    case FaultKind::kGpuFailStop:
      os << "fail@" << FormatFixed(time) << ":gpu" << gpu;
      break;
    case FaultKind::kGpuLinkDegrade:
      os << "degrade@" << FormatFixed(time) << ":gpu" << gpu << ":" << FormatFixed(scale)
         << ":" << FormatDuration(duration);
      break;
    case FaultKind::kHostLinkDegrade:
      os << "degrade@" << FormatFixed(time) << ":host:" << FormatFixed(scale) << ":"
         << FormatDuration(duration);
      break;
    case FaultKind::kHostMemPressure:
      os << "mem@" << FormatFixed(time) << ":" << FormatFixed(scale) << ":"
         << FormatDuration(duration);
      break;
    case FaultKind::kFlowFlap:
      os << "flow_flap@" << FormatFixed(time) << ":" << target();
      break;
    case FaultKind::kLinkBrownout:
      os << "brownout@" << FormatFixed(time) << ":" << target() << ":"
         << FormatFixed(scale) << ":" << FormatDuration(duration);
      break;
    case FaultKind::kGpuSlow:
      os << "gpu_slow@" << FormatFixed(time) << ":gpu" << gpu << ":" << FormatFixed(scale)
         << ":" << FormatDuration(duration);
      break;
    case FaultKind::kCkptCorrupt:
      os << "ckpt_corrupt@" << FormatFixed(time);
      break;
  }
  return os.str();
}

void FaultPlan::Add(FaultEvent event) {
  // Stable insertion keeps equal-time events in Add() order — the replay order contract.
  const auto pos = std::upper_bound(
      events_.begin(), events_.end(), event,
      [](const FaultEvent& a, const FaultEvent& b) { return a.time < b.time; });
  events_.insert(pos, event);
}

std::string FaultPlan::ToString() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (i > 0) {
      os << ";";
    }
    os << events_[i].ToString();
  }
  return os.str();
}

StatusOr<FaultPlan> ParseFaultSpec(const std::string& spec) {
  FaultPlan plan;
  for (const SpecField& item : SplitSpec(spec, ';')) {
    const std::string& event = item.text;
    const std::size_t offset = item.offset;
    if (event.empty()) {
      continue;
    }
    if (event.rfind("rand:", 0) == 0) {
      StatusOr<FaultPlan> random = ParseRandSpec(event, offset);
      HARMONY_RETURN_IF_ERROR(random.status());
      for (const FaultEvent& e : random.value().events()) {
        plan.Add(e);
      }
      continue;
    }
    const SpecGrammar g = EventGrammar(event);
    const auto at = event.find('@');
    if (at == std::string::npos) {
      return g.Error(offset, "expected '<kind>@<time>:...'");
    }
    const std::string kind = event.substr(0, at);
    const std::vector<SpecField> fields =
        SplitSpec(std::string_view(event).substr(at + 1), ':', offset + at + 1);
    StatusOr<double> time =
        g.Number(fields[0], "time", "a finite number >= 0", [](double v) { return v >= 0.0; });
    HARMONY_RETURN_IF_ERROR(time.status());
    // `n` fields after the '@' (the time included), or a shape error for the whole event.
    const auto expect = [&](std::size_t n, const char* shape) {
      return fields.size() == n ? Status::Ok() : g.Error(offset, std::string("expected ") + shape);
    };
    // The "<scale>:<dur>" pair starting at fields[first].
    const auto scale_and_duration = [&](std::size_t first, FaultEvent* e) {
      StatusOr<double> scale = ParseScale(g, fields[first]);
      HARMONY_RETURN_IF_ERROR(scale.status());
      StatusOr<double> duration = ParseDurationField(g, fields[first + 1]);
      HARMONY_RETURN_IF_ERROR(duration.status());
      e->scale = scale.value();
      e->duration = duration.value();
      return Status::Ok();
    };

    FaultEvent e;
    e.time = time.value();
    if (kind == "fail") {
      HARMONY_RETURN_IF_ERROR(expect(2, "fail@<t>:gpu<i>"));
      StatusOr<int> gpu = g.Target(fields[1], "gpu");
      HARMONY_RETURN_IF_ERROR(gpu.status());
      e.kind = FaultKind::kGpuFailStop;
      e.gpu = gpu.value();
    } else if (kind == "degrade") {
      HARMONY_RETURN_IF_ERROR(expect(4, "degrade@<t>:<gpu<i>|host>:<scale>:<dur>"));
      HARMONY_RETURN_IF_ERROR(scale_and_duration(2, &e));
      StatusOr<int> target = ParseTargetField(g, fields[1]);
      HARMONY_RETURN_IF_ERROR(target.status());
      e.gpu = target.value();
      e.kind = e.gpu < 0 ? FaultKind::kHostLinkDegrade : FaultKind::kGpuLinkDegrade;
    } else if (kind == "mem") {
      HARMONY_RETURN_IF_ERROR(expect(3, "mem@<t>:<scale>:<dur>"));
      HARMONY_RETURN_IF_ERROR(scale_and_duration(1, &e));
      e.kind = FaultKind::kHostMemPressure;
    } else if (kind == "flow_flap") {
      HARMONY_RETURN_IF_ERROR(expect(2, "flow_flap@<t>:<gpu<i>|host|nic<i>|rack<i>>"));
      HARMONY_RETURN_IF_ERROR(ParseNetworkTargetField(g, fields[1], &e));
      e.kind = FaultKind::kFlowFlap;
    } else if (kind == "brownout") {
      HARMONY_RETURN_IF_ERROR(
          expect(4, "brownout@<t>:<gpu<i>|host|nic<i>|rack<i>>:<scale>:<dur>"));
      HARMONY_RETURN_IF_ERROR(scale_and_duration(2, &e));
      HARMONY_RETURN_IF_ERROR(ParseNetworkTargetField(g, fields[1], &e));
      e.kind = FaultKind::kLinkBrownout;
    } else if (kind == "gpu_slow") {
      HARMONY_RETURN_IF_ERROR(expect(4, "gpu_slow@<t>:gpu<i>:<scale>:<dur>"));
      StatusOr<int> gpu = g.Target(fields[1], "gpu");
      HARMONY_RETURN_IF_ERROR(gpu.status());
      HARMONY_RETURN_IF_ERROR(scale_and_duration(2, &e));
      e.kind = FaultKind::kGpuSlow;
      e.gpu = gpu.value();
    } else if (kind == "ckpt_corrupt") {
      HARMONY_RETURN_IF_ERROR(expect(1, "ckpt_corrupt@<t>"));
      e.kind = FaultKind::kCkptCorrupt;
    } else {
      return g.Error(offset, "unknown fault kind '" + kind + "'");
    }
    plan.Add(e);
  }
  return plan;
}

FaultPlan MakeRandomFaultPlan(const RandomFaultOptions& options) {
  HCHECK_GT(options.mtbf, 0.0);
  HCHECK_GT(options.horizon, 0.0);
  HCHECK_GT(options.num_gpus, 0);
  FaultPlan plan;
  Rng rng(options.seed);
  const auto num_gpus = static_cast<std::uint64_t>(options.num_gpus);
  // Generated values stay above the renderer's %.3f resolution so that rendered plans
  // re-parse (a positive duration must never round down to the rejected "0.000").
  const auto draw_scale = [&rng, &options] {
    return std::max(0.001, rng.NextDouble(options.min_scale, 0.9));
  };
  const auto draw_duration = [&rng, &options] {
    return std::max(0.001, -options.mean_duration * std::log(1.0 - rng.NextDouble()));
  };
  // "gpu<i>" for i < num_gpus, or "host" (encoded -1), with equal probability; when the
  // machine has network tiers (nics=/racks=) the range widens to "nic<i>" / "rack<i>"
  // targets. Gating the widening on the options keeps pre-cluster seeds bitwise-stable.
  const auto num_nics = static_cast<std::uint64_t>(options.num_nics < 0 ? 0 : options.num_nics);
  const auto num_racks =
      static_cast<std::uint64_t>(options.num_racks < 0 ? 0 : options.num_racks);
  const auto draw_target = [&rng, num_gpus, num_nics, num_racks](FaultEvent* e) {
    const std::uint64_t t = rng.NextBounded(num_gpus + 1 + num_nics + num_racks);
    if (t < num_gpus) {
      e->gpu = static_cast<int>(t);
    } else if (t == num_gpus) {
      e->gpu = -1;
    } else if (t < num_gpus + 1 + num_nics) {
      e->nic = static_cast<int>(t - num_gpus - 1);
    } else {
      e->rack = static_cast<int>(t - num_gpus - 1 - num_nics);
    }
  };
  bool fail_stop_used = false;
  double t = 0.0;
  for (;;) {
    // Exponential inter-arrival at rate 1/mtbf. 1 - NextDouble() keeps log() off zero.
    t += -options.mtbf * std::log(1.0 - rng.NextDouble());
    if (t >= options.horizon) {
      return plan;
    }
    FaultEvent e;
    e.time = t;
    // Draw the fault class; fail-stop is deliberately rare (one per plan at most) so the
    // schedule degrades before it amputates.
    const std::uint64_t roll = rng.NextBounded(8);
    if (roll == 0 && options.allow_fail_stop && !fail_stop_used) {
      fail_stop_used = true;
      e.kind = FaultKind::kGpuFailStop;
      e.gpu = static_cast<int>(rng.NextBounded(num_gpus));
    } else {
      // Extended kinds widen the draw range only when enabled, so plans generated with
      // them off are bitwise-identical to plans from before the kinds existed.
      const std::uint64_t classes = 3u + (options.transient ? 3u : 0u) +
                                    (options.ckpt_faults ? 1u : 0u);
      const std::uint64_t which = rng.NextBounded(classes);
      const std::uint64_t ckpt_index = options.ckpt_faults ? classes - 1 : classes;
      if (which < 3) {
        e.kind = which == 0   ? FaultKind::kGpuLinkDegrade
                 : which == 1 ? FaultKind::kHostLinkDegrade
                              : FaultKind::kHostMemPressure;
        if (e.kind == FaultKind::kGpuLinkDegrade) {
          e.gpu = static_cast<int>(rng.NextBounded(num_gpus));
        }
        e.scale = draw_scale();
        e.duration = draw_duration();
      } else if (which == ckpt_index) {
        e.kind = FaultKind::kCkptCorrupt;
      } else if (which == 3) {
        e.kind = FaultKind::kFlowFlap;
        draw_target(&e);
      } else if (which == 4) {
        e.kind = FaultKind::kLinkBrownout;
        draw_target(&e);
        e.scale = draw_scale();
        e.duration = draw_duration();
      } else {
        e.kind = FaultKind::kGpuSlow;
        e.gpu = static_cast<int>(rng.NextBounded(num_gpus));
        e.scale = draw_scale();
        e.duration = draw_duration();
      }
    }
    plan.Add(e);
  }
}

}  // namespace harmony
