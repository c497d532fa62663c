// In-memory span recorder for the traced run. Spans are opened around the calls the
// benchmark makes into each layer (never inside the libraries), kept until exit, and
// written out once at the end. A disabled tracer records nothing, so traced and untraced
// runs execute the same benchmark code.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <time.h>

#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

// CPU time of the process (user + system, all threads), in seconds. Every host time the
// benchmark reports is CPU time: the process runs the simulator on one thread, so it moves
// with wall time, but it leaves out time the host steals for other tenants.
inline double CpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

struct Span {
  const char* name = "";  // a string literal, so it outlives the tracer
  double start = 0.0;  // CPU seconds since the tracer was created
  double end = 0.0;
  int parent = -1;     // index into spans(); -1 = root
  int run = -1;        // the repetition the span belongs to
  double duration() const { return end - start; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(CpuSeconds()) {}

  // Closes its span when it leaves scope; the innermost open scope is the parent of the
  // next span opened.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
      if (!tracer_->enabled_) {
        return;
      }
      index_ = static_cast<int>(tracer_->spans_.size());
      tracer_->spans_.push_back({name, tracer_->Now(), 0.0, tracer_->open_, tracer_->run_});
      tracer_->open_ = index_;
    }
    ~Scope() {
      if (index_ < 0) {
        return;
      }
      Span& span = tracer_->spans_[static_cast<std::size_t>(index_)];
      span.end = tracer_->Now();
      tracer_->open_ = span.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  bool enabled() const { return enabled_; }
  void set_run(int run) { run_ = run; }
  const std::vector<Span>& spans() const { return spans_; }

  // Spans as a JSON array of {"name", "start", "end", "parent", "run"} objects.
  std::string ToJson() const {
    std::string out = "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out += "{\"name\": \"" + std::string(s.name) + "\", \"start\": " + Number(s.start) +
             ", \"end\": " + Number(s.end) + ", \"parent\": " + std::to_string(s.parent) +
             ", \"run\": " + std::to_string(s.run) + "}";
      out += i + 1 < spans_.size() ? ",\n" : "\n";
    }
    return out + "]\n";
  }

 private:
  double Now() const { return CpuSeconds() - origin_; }
  static std::string Number(double v) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.9f", v);
    return buffer;
  }

  bool enabled_;
  double origin_;
  std::vector<Span> spans_;
  int open_ = -1;
  int run_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
