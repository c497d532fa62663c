// Multi-tenant scheduling: goodput and p99 queueing delay vs offered load at 8 / 64 GPUs.
//
// The cluster scheduler (DESIGN.md §13) admits a mixed training + serving stream under
// per-tenant quotas. This bench sweeps the offered load (Poisson arrival rate) over two
// fleet sizes and reports what a capacity planner reads off the per-tenant SLO rollup:
// cluster goodput (completed samples/s), utilization, preemption count, and the worst
// tenant's p99 queueing delay. The qualitative shape is the classic queueing curve —
// goodput grows with load while delay stays flat, then delay grows once the fleet
// saturates — and the 64-GPU fleet absorbs the same stream with a fraction of the delay.
//
// Results go to stdout as a table and to BENCH_multitenant.json for tooling.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/runtime/cluster_scheduler.h"
#include "src/util/check.h"
#include "src/util/table.h"
#include "src/util/units.h"

namespace {

struct LoadPoint {
  int gpus = 0;
  int nodes = 0;
  double rate = 0.0;  // offered load, jobs/s
  int jobs = 0;
  int completed = 0;
  int preemptions = 0;
  double utilization = 0.0;
  double goodput = 0.0;        // cluster-wide completed samples/s
  double q_delay_p99 = 0.0;    // worst tenant's p99 queueing delay
  double makespan = 0.0;
};

}  // namespace

int main() {
  using namespace harmony;
  std::cout << "=== Multi-tenant scheduling: goodput and p99 queueing delay vs offered "
               "load at 8 / 64 GPUs ===\n\n";

  struct Shape {
    int nodes;
    int nodes_per_rack;
  };
  const std::vector<Shape> shapes = {{2, 0}, {16, 8}};
  const std::vector<double> rates = {0.2, 0.5, 1.0};

  std::vector<LoadPoint> points;
  for (const Shape& shape : shapes) {
    for (const double rate : rates) {
      ClusterSchedulerConfig config;
      config.server.num_gpus = 4;
      config.num_nodes = shape.nodes;
      config.nodes_per_rack = shape.nodes_per_rack;
      config.policy = SchedPolicy::kPriority;
      // A reserved-bandwidth tenant plus a memory-capped tenant keep both quota paths hot
      // in every sweep point.
      config.quotas.tenants["t0"].bw_fraction = 0.5;
      config.quotas.tenants["t1"].host_mem_bytes = 24 * kGiB;

      char trace[128];
      std::snprintf(trace, sizeof(trace),
                    "poisson:seed=42,rate=%.3f,horizon=30,serve_frac=0.3", rate);
      const StatusOr<std::vector<JobSpec>> jobs =
          GenerateTrace(trace, config.server.num_gpus, config.num_nodes, "toy");
      HCHECK(jobs.ok()) << jobs.status().ToString();
      const StatusOr<ClusterReport> run = RunJobStream(jobs.value(), config);
      HCHECK(run.ok()) << run.status().ToString();
      const ClusterReport& report = run.value();

      LoadPoint p;
      p.gpus = report.total_gpus;
      p.nodes = report.num_nodes;
      p.rate = rate;
      p.jobs = static_cast<int>(report.jobs.size());
      p.completed = report.completed_jobs;
      p.preemptions = report.preemptions;
      p.utilization = report.utilization;
      p.makespan = report.makespan;
      for (const TenantSlo& slo : report.tenants) {
        p.goodput += slo.goodput;
        p.q_delay_p99 = std::max(p.q_delay_p99, slo.queue_delay_p99);
      }
      points.push_back(p);

      // Hard gates (deterministic sim, so these are exact, not statistical):
      //   - the stream drains: every job completes and loses zero iterations;
      //   - work happened: positive goodput and a utilization that is a real fraction.
      HCHECK_EQ(p.completed, p.jobs) << "jobs stranded at rate " << rate;
      for (const JobOutcome& job : report.jobs) {
        HCHECK_EQ(job.iterations_done, job.spec.iterations)
            << "job " << job.spec.id << " lost iterations";
      }
      HCHECK(p.goodput > 0.0);
      HCHECK(p.utilization > 0.0 && p.utilization <= 1.0);

      std::printf("%3d GPUs, rate %.1f jobs/s: %2d jobs, %d preemption(s), goodput %.2f "
                  "samples/s, p99 queue delay %.3f s, utilization %.3f\n",
                  p.gpus, p.rate, p.jobs, p.preemptions, p.goodput, p.q_delay_p99,
                  p.utilization);
    }
  }

  // The scale story: at every offered load, the 64-GPU fleet's worst-tenant p99 queueing
  // delay is no worse than the 8-GPU fleet's for the identical arrival stream.
  const std::size_t per_shape = rates.size();
  for (std::size_t i = 0; i < per_shape; ++i) {
    HCHECK(points[per_shape + i].q_delay_p99 <= points[i].q_delay_p99 + 1e-9)
        << "scaling out worsened p99 queueing delay at rate " << points[i].rate;
  }

  std::cout << "\n";
  TablePrinter table({"GPUs", "nodes", "rate (jobs/s)", "jobs", "done", "preempt",
                      "goodput (samples/s)", "p99 q-delay (s)", "utilization",
                      "makespan (s)"});
  for (const LoadPoint& p : points) {
    table.Row()
        .Cell(p.gpus)
        .Cell(p.nodes)
        .Cell(p.rate, 1)
        .Cell(p.jobs)
        .Cell(p.completed)
        .Cell(p.preemptions)
        .Cell(p.goodput, 3)
        .Cell(p.q_delay_p99, 3)
        .Cell(p.utilization, 3)
        .Cell(p.makespan, 3);
  }
  std::cout << "--- offered-load sweep (4 GPUs per node, priority policy, t0 bw=0.5, "
               "t1 mem=24 GiB) ---\n"
            << table.ToString() << "\n";

  std::string json;
  Appendf(&json, "{\n  \"sweep\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const LoadPoint& p = points[i];
    Appendf(&json,
            "    {\"gpus\": %d, \"nodes\": %d, \"offered_rate_jobs_per_s\": %.3f, "
            "\"jobs\": %d, \"completed\": %d, \"preemptions\": %d, "
            "\"goodput_samples_per_s\": %.6f, \"p99_queue_delay_s\": %.6f, "
            "\"utilization\": %.6f, \"makespan_s\": %.6f}%s\n",
            p.gpus, p.nodes, p.rate, p.jobs, p.completed, p.preemptions, p.goodput,
            p.q_delay_p99, p.utilization, p.makespan, i + 1 < points.size() ? "," : "");
  }
  Appendf(&json, "  ]\n}\n");
  return WriteBenchJson("BENCH_multitenant.json", json);
}
