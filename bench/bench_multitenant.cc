// Multi-tenant load sweep: concurrent jobs on one shared cluster.
//
// The paper evaluates one job at a time; a shuffle *service* runs many.
// This bench submits a batch of WordCount jobs on an open-loop Poisson
// arrival process (workloads/arrivals.h) against a single GeoCluster and
// sweeps the offered load, for all three schemes. Two tenants share the
// executors under weighted fair sharing (alice weight 2, bob weight 1 —
// alternate jobs, so contention is real once the cluster saturates).
//
// The load axis is normalized per scheme: a solo probe measures the JCT
// of one job running alone, and the sweep offers arrivals at
// load x (1 / solo JCT) — load 0.5 is a half-busy service, load 2 is
// firmly saturated, so queueing delay and p99 JCT grow while throughput
// flattens at the service capacity.
//
// Environment: GS_SCALE as usual; GS_MT_JOBS overrides the jobs per
// sweep point (default 12, minimum 8); GS_BENCH_JSON writes the sweep
// rows as JSON (the run_benches.sh convention). GS_RUNS is ignored — one
// deterministic seed per point; rerunning reproduces the rows byte for
// byte (the JSON's "host" object records the machine that ran it).
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/stats.h"
#include "common/table.h"
#include "engine/dataset.h"
#include "harness.h"
#include "workloads/arrivals.h"

namespace {

using namespace gs;
using namespace gs::bench;

constexpr std::uint64_t kSeed = 1;

struct SweepRow {
  std::string scheme;
  double load = 0;            // offered load in units of solo capacity
  double rate_per_s = 0;      // arrival rate behind that load
  int jobs = 0;
  int cap = 0;                // admission cap (0 = unlimited)
  double throughput = 0;      // completed jobs per simulated second
  double jct_p50 = 0, jct_p99 = 0;
  double queue_p50 = 0, queue_p99 = 0;
};

int JobsFromEnv() {
  int jobs = 12;
  if (const char* env = std::getenv("GS_MT_JOBS")) {
    jobs = std::atoi(env);
  }
  // The acceptance bar for this bench: at least 8 concurrent jobs.
  return std::max(8, jobs);
}

// One job alone on a fresh cluster: the scheme's service capacity.
double SoloJct(const HarnessConfig& h, const WorkloadParams& params,
               Scheme scheme) {
  GeoCluster cluster(MakeTopology(h), MakeRunConfig(h, scheme, kSeed));
  auto wl = MakeWorkload("wordcount", params);
  RunResult r = wl->Run(cluster, /*data_seed=*/kSeed * 7919 + 13);
  return r.metrics.jct();
}

SweepRow RunPoint(const HarnessConfig& h, const WorkloadParams& params,
                  Scheme scheme, double load, double solo_jct, int jobs,
                  int max_concurrent = 0) {
  RunConfig cfg = MakeRunConfig(h, scheme, kSeed);
  cfg.service.max_concurrent_jobs = max_concurrent;
  GeoCluster cluster(MakeTopology(h), cfg);

  ArrivalConfig arrivals;
  arrivals.rate_per_s = load / solo_jct;
  const std::vector<SimTime> times = GenerateArrivals(arrivals, jobs, kSeed);

  std::vector<JobHandle> handles;
  handles.reserve(static_cast<std::size_t>(jobs));
  for (int j = 0; j < jobs; ++j) {
    auto wl = MakeWorkload("wordcount", params);
    Dataset ds = wl->Build(
        cluster, (kSeed + static_cast<std::uint64_t>(j)) * 7919 + 13);
    JobOptions jo;
    jo.tenant = (j % 2 == 0) ? "alice" : "bob";
    jo.weight = (j % 2 == 0) ? 2.0 : 1.0;
    jo.arrival_delay = times[static_cast<std::size_t>(j)];
    jo.label = "wc#" + std::to_string(j);
    handles.push_back(ds.Submit(wl->action(), jo));
  }
  cluster.RunUntilQuiescent();

  SweepRow row;
  row.scheme = SchemeName(scheme);
  row.load = load;
  row.rate_per_s = arrivals.rate_per_s;
  row.jobs = jobs;
  row.cap = max_concurrent;
  std::vector<double> jcts, delays;
  SimTime last_done = 0;
  for (const RunReport::JobRow& jr : cluster.job_rows()) {
    jcts.push_back(jr.jct());
    delays.push_back(jr.queue_delay());
    last_done = std::max(last_done, jr.completed);
  }
  GS_CHECK_MSG(static_cast<int>(jcts.size()) == jobs,
               "expected " << jobs << " completed jobs, got " << jcts.size());
  row.throughput = jobs / last_done;
  row.jct_p50 = Percentile(jcts, 50);
  row.jct_p99 = Percentile(jcts, 99);
  row.queue_p50 = Percentile(delays, 50);
  row.queue_p99 = Percentile(delays, 99);
  return row;
}

void WriteJson(const std::string& path, const std::vector<SweepRow>& rows) {
  std::ofstream out(path);
  GS_CHECK_MSG(out.good(), "cannot write " << path);
  out << "{\"host\": " << HostMetadataJson() << ",\n\"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    out << "  {\"scheme\": \"" << r.scheme << "\", \"load\": " << r.load
        << ", \"rate_per_s\": " << std::setprecision(6) << r.rate_per_s
        << ", \"jobs\": " << r.jobs << ", \"admission_cap\": " << r.cap
        << ", \"throughput_jobs_per_s\": " << r.throughput
        << ", \"jct_p50_s\": " << r.jct_p50 << ", \"jct_p99_s\": " << r.jct_p99
        << ", \"queue_p50_s\": " << r.queue_p50
        << ", \"queue_p99_s\": " << r.queue_p99 << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "]}\n";
}

}  // namespace

int main() {
  HarnessConfig h = HarnessConfig::FromEnv();
  const int jobs = JobsFromEnv();
  std::cout << "=== Multi-tenant service: offered load vs throughput and "
               "JCT (WordCount, " << jobs
            << " jobs, tenants alice:2 / bob:1) ===\n";
  PrintClusterHeader(h);

  WorkloadParams params;
  params.scale = h.scale;

  const double loads[] = {0.5, 1.0, 2.0};
  std::vector<SweepRow> rows;
  TextTable table({"Scheme", "load", "cap", "rate (jobs/s)", "thru (jobs/s)",
                   "JCT p50", "JCT p99", "queue p50", "queue p99"});
  auto add = [&](const SweepRow& row) {
    table.AddRow({row.scheme, FmtDouble(row.load, 1),
                  row.cap > 0 ? std::to_string(row.cap) : "-",
                  FmtDouble(row.rate_per_s, 4), FmtDouble(row.throughput, 4),
                  FmtDouble(row.jct_p50, 2) + "s",
                  FmtDouble(row.jct_p99, 2) + "s",
                  FmtDouble(row.queue_p50, 2) + "s",
                  FmtDouble(row.queue_p99, 2) + "s"});
    rows.push_back(row);
  };
  for (Scheme scheme : AllSchemes()) {
    const double solo = SoloJct(h, params, scheme);
    std::cout << SchemeName(scheme) << ": solo JCT " << FmtDouble(solo, 2)
              << "s (load 1.0 = " << FmtDouble(1.0 / solo, 4)
              << " jobs/s offered)\n";
    for (double load : loads) {
      add(RunPoint(h, params, scheme, load, solo, jobs));
    }
    // One capped point: with admission limited to 3 concurrent jobs the
    // overload shows up as queueing delay instead of slowdown.
    add(RunPoint(h, params, scheme, 2.0, solo, jobs, /*max_concurrent=*/3));
  }
  std::cout << "\n" << table.Render();
  std::cout << "\nOpen-loop arrivals: above load 1.0 the offered rate "
               "exceeds capacity, so queue delay and p99 JCT grow while "
               "throughput saturates.\n";

  if (const char* json = std::getenv("GS_BENCH_JSON");
      json != nullptr && *json != '\0') {
    WriteJson(json, rows);
    std::cout << "\nSweep rows written to " << json << "\n";
  }
  return 0;
}
