// geobench: one process of the end-to-end benchmark (see ../README.md).
//
// Runs a benchmark workload through GeoShuffle's public API —
// GeoCluster, Workload::Build, Dataset::Submit, JobHandle::Wait — and
// prints one JSON object on stdout. run.py starts one process per pass,
// so each pass's memory high-water mark and CPU time are its own.
//
//   geobench --mode=run    --workload=W --seed=N --threads=T [--check=1]
//       One untraced pass: host times, CPU, peak RSS and, per job, the
//       simulated results and the Save acks. --check=1 also computes each
//       job's expected acks without the engine (reference.h), between the
//       timed run and the timed teardown, on the pass's own inputs; its CPU
//       time is left out of cpu_s.
//   geobench --mode=traced --workload=W --seed=N --threads=T
//       The same pass with observers attached; the layer replays
//       (replay.h) run outside its timed phases. Adds the per-layer
//       metrics and the replay checks.
//   geobench --mode=meta
//       Compiler, build type and sanitizer of this binary.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "common/units.h"
#include "engine/cluster.h"
#include "engine/dataset.h"
#include "netsim/pricing.h"
#include "reference.h"
#include "replay.h"
#include "workloads/hibench.h"

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Workloads. Each is a list of clusters run one after another, each with
// the jobs submitted to it. `seed` only changes generated inputs (data
// seeds and arrival times); the simulated cluster's own seed is part of
// the workload definition.
// ---------------------------------------------------------------------------

struct JobSpec {
  std::string workload;  // MakeWorkload name
  std::uint64_t data_seed = 0;
  gs::JobOptions opts;
};

struct ClusterSpec {
  gs::RunConfig config;
  gs::WorkloadParams params;
  std::vector<JobSpec> jobs;
};

constexpr int kServiceJobs = 64;
constexpr double kServiceArrivalsPerS = 2.0;
constexpr int kServiceTenants = 3;
constexpr int kFaultSeeds = 12;

std::uint64_t DataSeed(std::uint64_t seed, int job) {
  return seed * 1'000'003ULL + static_cast<std::uint64_t>(job) * 7919ULL + 13;
}

// Poisson arrivals at kServiceArrivalsPerS, conditioned on kServiceJobs
// arrivals in kServiceJobs / kServiceArrivalsPerS seconds: sorted uniform
// times over that window. Fixing the count per window keeps the offered
// load equal for every seed, so seeds change when jobs overlap, not how
// much work the service gets.
std::vector<gs::SimTime> ServiceArrivals(std::uint64_t seed) {
  gs::Rng rng = gs::Rng(seed).Split("service-arrivals");
  const double window = kServiceJobs / kServiceArrivalsPerS;
  std::vector<gs::SimTime> times;
  for (int j = 0; j < kServiceJobs; ++j) {
    times.push_back(rng.Uniform(0.0, window));
  }
  std::sort(times.begin(), times.end());
  return times;
}

gs::RunConfig BaseConfig(gs::Scheme scheme, double scale, std::uint64_t seed,
                         int threads) {
  gs::RunConfig cfg;
  cfg.scheme = scheme;
  cfg.seed = seed;
  cfg.scale = scale;
  cfg.cost = gs::CostModel{}.Scaled(scale);
  cfg.compute_threads = threads;
  cfg.observe.egress_usd_per_gib =
      gs::WanPricing::Ec2SixRegionTariff().rates();
  return cfg;
}

ClusterSpec SingleJob(gs::Scheme scheme, const char* workload,
                      std::uint64_t seed, int threads) {
  ClusterSpec c;
  c.config = BaseConfig(scheme, 10.0, 1, threads);
  c.params.scale = 10.0;
  c.jobs.push_back({workload, DataSeed(seed, 0), {}});
  return c;
}

// Returns false for an unknown workload name.
bool MakeSpecs(const std::string& name, std::uint64_t seed, int threads,
               std::vector<ClusterSpec>* out) {
  if (name == "wordcount-agg") {
    out->push_back(SingleJob(gs::Scheme::kAggShuffle, "wordcount", seed,
                             threads));
  } else if (name == "terasort-spark") {
    out->push_back(SingleJob(gs::Scheme::kSpark, "terasort", seed, threads));
  } else if (name == "pagerank-service") {
    ClusterSpec c;
    c.config = BaseConfig(gs::Scheme::kAggShuffle, 1000.0, 1, threads);
    c.params.scale = 1000.0;
    const std::vector<gs::SimTime> times = ServiceArrivals(seed);
    for (int j = 0; j < kServiceJobs; ++j) {
      JobSpec job{"pagerank", DataSeed(seed, j), {}};
      const int tenant = j % kServiceTenants;
      job.opts.tenant = "t" + std::to_string(tenant);
      job.opts.weight = tenant + 1.0;
      job.opts.arrival_delay = times[static_cast<std::size_t>(j)];
      job.opts.label = "pagerank#" + std::to_string(j);
      c.jobs.push_back(std::move(job));
    }
    out->push_back(std::move(c));
  } else if (name == "sort-coded-faults") {
    // A fixed list of simulation seeds, so every run covers the same
    // crash/degradation timings; `seed` varies only the sorted data.
    for (int k = 0; k < kFaultSeeds; ++k) {
      ClusterSpec c;
      c.config = BaseConfig(gs::Scheme::kSpark, 10.0,
                            static_cast<std::uint64_t>(k + 1), threads);
      c.params.scale = 10.0;
      c.config.coded.enabled = true;
      c.config.coded.redundancy_r = 2;
      gs::NodeCrashEvent crash;
      crash.at = 6.0;
      crash.node = 20;
      crash.restart_after = 20.0;
      c.config.fault.plan.node_crashes.push_back(crash);
      gs::LinkDegradationEvent degrade;
      degrade.at = 2.0;
      degrade.src = 1;
      degrade.dst = 0;
      degrade.factor = 0.2;
      degrade.duration = 10.0;
      c.config.fault.plan.link_degradations.push_back(degrade);
      c.jobs.push_back({"sort", DataSeed(seed, k), {}});
      out->push_back(std::move(c));
    }
  } else {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// One pass over a workload's clusters.
// ---------------------------------------------------------------------------

struct JobOutcome {
  gs::SimTime submitted = 0;
  gs::SimTime started = 0;
  gs::SimTime completed = 0;
  gs::Bytes cross_dc_bytes = 0;
  std::vector<std::int64_t> acks;  // Save ack record count per partition
  std::vector<std::int64_t> expected;  // reference acks (--check=1 only)
};

// Per-layer inputs gathered by a traced pass (summed over clusters).
struct TraceTotals {
  geobench::ExecReplay exec;
  int exec_mismatches = 0;
  double report_s = 0;
  std::int64_t tasks = 0, task_failures = 0, fetch_failures = 0,
               map_resubmissions = 0, coded_groups = 0;
  double sched_replay_s = 0;
  std::int64_t sched_tasks = 0, sched_assigned = 0, sched_unmatched = 0,
               sched_peak_queue = 0, run_peak_queue = 0;
  std::vector<double> sched_waits;
  double net_replay_s = 0;
  std::int64_t net_flows = 0, net_replay_recomputes = 0;
  int net_mismatches = 0;
  std::int64_t cancelled_flows = 0, peak_active_flows = 0,
               rate_recomputes = 0, solver_flows = 0, flow_reschedules = 0,
               parallel_solves = 0;
  std::int64_t events_scheduled = 0, events_executed = 0,
               events_pending = 0, heap_compactions = 0;
  std::int64_t storage_puts = 0, storage_peak_bytes = 0, disk_write_bytes = 0;
};

struct Pass {
  double setup_s = 0, build_s = 0, run_s = 0, teardown_s = 0, cpu_s = 0;
  double check_cpu_s = 0;  // spent on the reference, left out of cpu_s
  double peak_rss_mib = 0;
  gs::Bytes input_bytes = 0;
  double egress_usd = 0;
  double makespan_s = 0;
  std::vector<JobOutcome> jobs;
  TraceTotals trace;  // filled by traced passes only

  double wall_s() const { return run_s + teardown_s; }
};

std::vector<std::int64_t> ParseAcks(const gs::RunResult& r, int partitions) {
  std::vector<std::int64_t> acks(static_cast<std::size_t>(partitions), -1);
  for (const gs::Record& rec : r.records) {
    const int p = std::atoi(rec.key.c_str());
    const auto* count = std::get_if<std::int64_t>(&rec.value);
    if (p < 0 || p >= partitions || count == nullptr) return {};
    acks[static_cast<std::size_t>(p)] = *count;
  }
  return acks;
}

// Bytes of every source partition in the job graph (shared sources once).
gs::Bytes SourceBytes(const gs::Rdd& rdd,
                      std::unordered_set<const gs::Rdd*>* seen) {
  if (!seen->insert(&rdd).second) return 0;
  if (rdd.kind() == gs::RddKind::kSource) {
    return static_cast<const gs::SourceRdd&>(rdd).total_bytes();
  }
  gs::Bytes total = 0;
  for (const gs::RddPtr& parent : rdd.parents()) {
    total += SourceBytes(*parent, seen);
  }
  return total;
}

// Maps each task span to the (job, stage) it belongs to and returns the
// replay tasks. Stage ids repeat across the jobs of one cluster, so a span
// goes to the earliest-submitted stage with that id whose window contains
// it and whose task count is not used up yet.
std::vector<geobench::SchedTask> SchedTasksOf(
    const std::vector<gs::RunResult>& results,
    const std::vector<int>& job_tenant, std::int64_t* unmatched) {
  struct Window {
    gs::SimTime submitted, completed;
    int tenant, remaining;
  };
  std::unordered_map<int, std::vector<Window>> windows;  // by stage id
  std::vector<const gs::TraceSpan*> spans;
  for (std::size_t j = 0; j < results.size(); ++j) {
    for (const gs::StageMetrics& s : results[j].metrics.stages) {
      windows[s.id].push_back(
          {s.submitted, s.completed, job_tenant[j], s.num_tasks});
    }
    if (results[j].trace == nullptr) continue;
    for (const gs::TraceSpan& span : results[j].trace->spans()) {
      if (span.kind == gs::TraceSpan::Kind::kTask) spans.push_back(&span);
    }
  }
  for (auto& [id, w] : windows) {
    std::stable_sort(w.begin(), w.end(), [](const Window& a, const Window& b) {
      return a.submitted < b.submitted;
    });
  }
  std::stable_sort(spans.begin(), spans.end(),
                   [](const gs::TraceSpan* a, const gs::TraceSpan* b) {
                     return a->start < b->start;
                   });

  std::vector<geobench::SchedTask> tasks;
  for (const gs::TraceSpan* span : spans) {
    // Span names are "stage<id>/part<p>[#retry|#spec]".
    const int stage = std::atoi(span->name.c_str() + std::strlen("stage"));
    Window* best = nullptr;
    for (Window& w : windows[stage]) {
      if (w.submitted > span->start || span->end > w.completed) continue;
      if (best == nullptr || (best->remaining <= 0 && w.remaining > 0)) {
        best = &w;
      }
      if (best->remaining > 0) break;
    }
    if (best == nullptr) {
      ++*unmatched;
      continue;
    }
    --best->remaining;
    tasks.push_back({best->submitted, span->end - span->start, best->tenant,
                     span->node});
  }
  return tasks;
}

void AddExec(const geobench::ExecReplay& exec,
             const gs::MapOutputTracker& tracker, TraceTotals* tr) {
  for (const auto& [sid, bytes] : exec.shuffle_bytes) {
    if (!tracker.HasShuffle(sid) || tracker.TotalBytes(sid) != bytes) {
      ++tr->exec_mismatches;
    }
  }
  tr->exec.tasks += exec.tasks;
  tr->exec.serial_s += exec.serial_s;
  tr->exec.pool_s += exec.pool_s;
  tr->exec.records_in += exec.records_in;
  tr->exec.records_out += exec.records_out;
  tr->exec.shard_bytes += exec.shard_bytes;
}

// Folds a finished cluster's job metrics and metrics-registry snapshot
// into the traced totals.
void AddRunCounts(gs::GeoCluster& cluster,
                  const std::vector<gs::RunResult>& results, TraceTotals* tr) {
  for (const gs::RunResult& r : results) {
    const gs::JobMetrics& m = r.metrics;
    for (const gs::StageMetrics& s : m.stages) tr->tasks += s.num_tasks;
    tr->task_failures += m.task_failures;
    tr->fetch_failures += m.fetch_failures;
    tr->map_resubmissions += m.map_resubmissions;
    tr->coded_groups += m.coded_groups;
  }
  gs::MetricsRegistry& reg = *cluster.metrics_registry();
  auto peak = [&reg](std::int64_t* into, const char* gauge) {
    *into = std::max(*into, reg.gauge(gauge).max_value());
  };
  auto add = [&reg](std::int64_t* into, const char* counter) {
    *into += reg.counter(counter).value();
  };
  peak(&tr->run_peak_queue, "sched.queue_depth");
  peak(&tr->peak_active_flows, "netsim.active_flows");
  peak(&tr->storage_peak_bytes, "storage.bytes");
  add(&tr->cancelled_flows, "netsim.flows_cancelled");
  add(&tr->rate_recomputes, "netsim.rate_recomputes");
  add(&tr->solver_flows, "netsim.solver_flows");
  add(&tr->flow_reschedules, "netsim.flow_reschedules");
  add(&tr->parallel_solves, "netsim.parallel_solves");
  add(&tr->events_scheduled, "simcore.events_scheduled");
  add(&tr->events_executed, "simcore.events_executed");
  add(&tr->heap_compactions, "simcore.heap_compactions");
  add(&tr->storage_puts, "storage.puts");
  add(&tr->disk_write_bytes, "disk.write_bytes");
  tr->events_pending +=
      static_cast<std::int64_t>(cluster.simulator().pending_events());
}

// Replays the cluster's recorded tasks and flows (replay.h) on their own.
void RunReplays(const ClusterSpec& spec, const gs::RunConfig& cfg,
                const std::vector<gs::FlowRecord>& flows,
                const std::vector<double>& tenant_weights,
                const std::vector<geobench::SchedTask>& sched_tasks,
                const std::vector<gs::Bytes>& run_pair_bytes, int threads,
                TraceTotals* tr) {
  const gs::Topology topo = gs::Ec2SixRegionTopology(spec.params.scale);
  const geobench::SchedReplay sched =
      geobench::ReplaySched(topo, cfg.sched, tenant_weights, sched_tasks);
  tr->sched_replay_s += sched.replay_s;
  tr->sched_tasks += static_cast<std::int64_t>(sched_tasks.size());
  tr->sched_assigned += sched.assigned;
  tr->sched_peak_queue = std::max(tr->sched_peak_queue, sched.peak_queue_depth);
  tr->sched_waits.insert(tr->sched_waits.end(), sched.queue_waits.begin(),
                         sched.queue_waits.end());

  const geobench::NetReplay net = geobench::ReplayNet(
      topo, cfg.net, cfg.seed, flows, cfg.fault.plan.link_degradations,
      threads);
  tr->net_replay_s += net.replay_s;
  tr->net_flows += net.flows;
  tr->net_replay_recomputes += net.rate_recomputes;
  if (net.pair_bytes != run_pair_bytes || net.completed != net.flows) {
    ++tr->net_mismatches;
  }
}

void RunCluster(const ClusterSpec& spec, bool traced, bool check, int threads,
                Pass* pass) {
  gs::RunConfig cfg = spec.config;
  cfg.observe.trace = traced;

  const auto setup_start = Clock::now();
  auto cluster = std::make_unique<gs::GeoCluster>(
      gs::Ec2SixRegionTopology(spec.params.scale), cfg);
  std::vector<gs::FlowRecord> flows;
  if (traced) {
    // Replaces the trace collector's flow observer: the benchmark needs
    // destination nodes, which flow spans do not keep.
    cluster->network().SetFlowObserver(
        [&flows](const gs::FlowRecord& f) { flows.push_back(f); });
  }
  const auto build_start = Clock::now();
  std::vector<std::unique_ptr<gs::Workload>> workloads;
  std::vector<gs::Dataset> datasets;
  for (const JobSpec& job : spec.jobs) {
    workloads.push_back(gs::MakeWorkload(job.workload, spec.params));
    datasets.push_back(workloads.back()->Build(*cluster, job.data_seed));
  }
  pass->build_s += Since(build_start);
  pass->setup_s += Since(setup_start);
  std::unordered_set<const gs::Rdd*> seen;
  for (const gs::Dataset& ds : datasets) {
    pass->input_bytes += SourceBytes(*ds.rdd(), &seen);
  }

  const auto run_start = Clock::now();
  std::vector<gs::JobHandle> handles;
  for (std::size_t j = 0; j < spec.jobs.size(); ++j) {
    handles.push_back(
        datasets[j].Submit(workloads[j]->action(), spec.jobs[j].opts));
  }
  cluster->RunUntilQuiescent();
  std::vector<gs::RunResult> results;
  for (gs::JobHandle& h : handles) results.push_back(h.Wait());
  pass->run_s += Since(run_start);

  const std::size_t first_job = pass->jobs.size();
  gs::SimTime first_arrival = -1, last_done = 0;
  double cost = 0;
  for (std::size_t j = 0; j < results.size(); ++j) {
    const gs::JobMetrics& m = results[j].metrics;
    JobOutcome o;
    o.submitted = m.submitted;
    o.started = m.started;
    o.completed = m.completed;
    o.cross_dc_bytes = m.cross_dc_bytes;
    o.acks = ParseAcks(results[j], datasets[j].num_partitions());
    pass->jobs.push_back(std::move(o));
    first_arrival = first_arrival < 0 ? m.submitted
                                      : std::min(first_arrival, m.submitted);
    last_done = std::max(last_done, m.completed);
    // The report's cost section is cumulative over the cluster's life.
    cost = std::max(cost, results[j].report.cost_usd_full_scale);
  }
  pass->makespan_s += last_done - first_arrival;
  pass->egress_usd += cost;

  if (check) {
    // The inputs are still alive here; the cluster's pool is idle.
    const double cpu_start = CpuSeconds();
    for (std::size_t j = 0; j < datasets.size(); ++j) {
      pass->jobs[first_job + j].expected = geobench::ReferencePartitionCounts(
          *datasets[j].rdd(), cluster->compute_pool());
    }
    pass->check_cpu_s += CpuSeconds() - cpu_start;
  }

  TraceTotals& tr = pass->trace;
  std::vector<geobench::SchedTask> sched_tasks;
  std::vector<double> tenant_weights;
  std::vector<gs::Bytes> run_pair_bytes;
  if (traced) {
    // After the timed run, so the replay's allocations do not pre-fault
    // memory the run would otherwise fault in itself.
    std::vector<gs::RddPtr> rdds;
    for (const gs::Dataset& ds : datasets) rdds.push_back(ds.rdd());
    AddExec(geobench::ReplayExec(rdds, threads), cluster->tracker(), &tr);
    AddRunCounts(*cluster, results, &tr);
    run_pair_bytes = geobench::CrossDcPairBytes(
        cluster->network().meter(), cluster->topology().num_datacenters());

    // Scheduler tenant ids, in first-submission order like GeoCluster's.
    std::unordered_map<std::string, int> tenant_ids;
    std::vector<int> job_tenant;
    for (const JobSpec& job : spec.jobs) {
      auto [it, fresh] = tenant_ids.try_emplace(
          job.opts.tenant, static_cast<int>(tenant_ids.size()));
      if (fresh) tenant_weights.push_back(job.opts.weight);
      job_tenant.push_back(it->second);
    }
    sched_tasks = SchedTasksOf(results, job_tenant, &tr.sched_unmatched);

    const auto report_start = Clock::now();
    const std::string report =
        cluster->BuildReport(gs::JobMetrics{}, nullptr).ToJson();
    tr.report_s += Since(report_start);
  }

  const auto teardown_start = Clock::now();
  results.clear();
  handles.clear();
  datasets.clear();
  workloads.clear();
  cluster.reset();
  pass->teardown_s += Since(teardown_start);

  if (traced) {
    RunReplays(spec, cfg, flows, tenant_weights, sched_tasks, run_pair_bytes,
               threads, &tr);
  }
}

Pass RunPass(const std::vector<ClusterSpec>& specs, bool traced, bool check,
             int threads) {
  Pass pass;
  const double cpu_start = CpuSeconds();
  for (const ClusterSpec& spec : specs) {
    RunCluster(spec, traced, check, threads, &pass);
  }
  pass.cpu_s = CpuSeconds() - cpu_start - pass.check_cpu_s;
  pass.peak_rss_mib = PeakRssMiB();
  return pass;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void WriteJobs(const Pass& pass, gs::JsonWriter& w) {
  w.Key("jobs").BeginArray();
  for (const JobOutcome& j : pass.jobs) {
    w.BeginObject()
        .Key("submitted").Value(j.submitted)
        .Key("started").Value(j.started)
        .Key("completed").Value(j.completed)
        .Key("cross_dc_bytes").Value(static_cast<std::int64_t>(j.cross_dc_bytes))
        .Key("acks").BeginArray();
    for (std::int64_t a : j.acks) w.Value(a);
    w.EndArray();
    if (!j.expected.empty()) {
      w.Key("expected").BeginArray();
      for (std::int64_t a : j.expected) w.Value(a);
      w.EndArray();
    }
    w.EndObject();
  }
  w.EndArray();
}

void WritePass(const Pass& pass, gs::JsonWriter& w) {
  w.Key("setup_s").Value(pass.setup_s)
      .Key("build_s").Value(pass.build_s)
      .Key("run_s").Value(pass.run_s)
      .Key("teardown_s").Value(pass.teardown_s)
      .Key("wall_s").Value(pass.wall_s())
      .Key("cpu_s").Value(pass.cpu_s)
      .Key("peak_rss_mib").Value(pass.peak_rss_mib)
      .Key("egress_usd").Value(pass.egress_usd)
      .Key("makespan_s").Value(pass.makespan_s);
  WriteJobs(pass, w);
}

void WriteLayers(const Pass& pass, gs::JsonWriter& w) {
  const TraceTotals& t = pass.trace;
  const double input_mib = gs::ToMiB(pass.input_bytes);
  auto metric = [&w](const char* name, double value) {
    w.Key(name).Value(value);
  };
  w.Key("layers").BeginObject();
  metric("workloads.build_s", pass.build_s);
  metric("workloads.input_mib", input_mib);
  metric("workloads.mib_per_s", Ratio(input_mib, pass.build_s));
  metric("exec.compute_s", t.exec.serial_s);
  metric("exec.records_in", static_cast<double>(t.exec.records_in));
  metric("exec.records_out", static_cast<double>(t.exec.records_out));
  metric("exec.combine_ratio",
         Ratio(static_cast<double>(t.exec.records_out),
               static_cast<double>(t.exec.records_in)));
  metric("exec.shuffle_mib", gs::ToMiB(t.exec.shard_bytes));
  metric("exec.ns_per_record",
         Ratio(t.exec.serial_s * 1e9, static_cast<double>(t.exec.records_in)));
  metric("threadpool.replay_speedup", Ratio(t.exec.serial_s, t.exec.pool_s));
  metric("engine.run_s", pass.run_s);
  metric("engine.teardown_s", pass.teardown_s);
  metric("engine.report_s", t.report_s);
  metric("engine.tasks", static_cast<double>(t.tasks));
  metric("engine.task_failures", static_cast<double>(t.task_failures));
  metric("engine.fetch_failures", static_cast<double>(t.fetch_failures));
  metric("engine.map_resubmissions", static_cast<double>(t.map_resubmissions));
  metric("engine.coded_groups", static_cast<double>(t.coded_groups));
  metric("sched.replay_s", t.sched_replay_s);
  metric("sched.us_per_assign",
         Ratio(t.sched_replay_s * 1e6, static_cast<double>(t.sched_assigned)));
  metric("sched.tasks_assigned", static_cast<double>(t.sched_assigned));
  metric("sched.peak_queue_depth", static_cast<double>(t.sched_peak_queue));
  metric("sched.queue_wait_p50_s", Median(t.sched_waits));
  metric("netsim.replay_s", t.net_replay_s);
  metric("netsim.flows", static_cast<double>(t.net_flows));
  metric("netsim.peak_active_flows", static_cast<double>(t.peak_active_flows));
  metric("netsim.rate_recomputes", static_cast<double>(t.rate_recomputes));
  metric("netsim.solver_flows", static_cast<double>(t.solver_flows));
  metric("netsim.flow_reschedules", static_cast<double>(t.flow_reschedules));
  metric("netsim.parallel_solves", static_cast<double>(t.parallel_solves));
  metric("netsim.us_per_recompute",
         Ratio(t.net_replay_s * 1e6,
               static_cast<double>(t.net_replay_recomputes)));
  const double events = static_cast<double>(t.events_executed);
  metric("simcore.events", events);
  metric("simcore.cancelled_ratio",
         Ratio(static_cast<double>(t.events_scheduled - t.events_executed -
                                   t.events_pending),
               static_cast<double>(t.events_scheduled)));
  metric("simcore.heap_compactions", static_cast<double>(t.heap_compactions));
  metric("simcore.us_per_event", Ratio(pass.run_s * 1e6, events));
  metric("storage.puts", static_cast<double>(t.storage_puts));
  metric("storage.mib", gs::ToMiB(t.storage_peak_bytes));
  metric("disk.write_mib", gs::ToMiB(t.disk_write_bytes));
  w.EndObject();

  // For comparison with sched.peak_queue_depth of the replay.
  w.Key("run_peak_queue_depth").Value(t.run_peak_queue);

  // A replay that did not reproduce the run's work is reported here, and
  // run.py withholds that layer's numbers.
  w.Key("replay_errors").BeginObject();
  std::string exec_err, sched_err, net_err;
  if (t.exec.tasks == 0) exec_err = "no map-stage tasks to replay";
  if (t.exec_mismatches > 0) {
    exec_err = std::to_string(t.exec_mismatches) +
               " shuffle(s) whose replayed shard bytes differ from the "
               "run's MapOutputTracker";
  }
  if (t.sched_unmatched > 0 || t.sched_assigned != t.sched_tasks) {
    sched_err = std::to_string(t.sched_assigned) + " of " +
                std::to_string(t.sched_tasks) + " tasks assigned, " +
                std::to_string(t.sched_unmatched) +
                " task span(s) matched no stage";
  }
  if (t.cancelled_flows > 0) {
    net_err = std::to_string(t.cancelled_flows) +
              " cancelled flow(s) in the run cannot be replayed";
  } else if (t.net_mismatches > 0) {
    net_err = std::to_string(t.net_mismatches) +
              " cluster(s) whose replayed cross-DC bytes differ from the "
              "run's TrafficMeter";
  }
  if (!exec_err.empty()) w.Key("exec").Value(exec_err);
  if (!sched_err.empty()) w.Key("sched").Value(sched_err);
  if (!net_err.empty()) w.Key("netsim").Value(net_err);
  w.EndObject();
}

const char* Sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "none";
#endif
}

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  int threads = 0;
  bool check = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = a.substr(2, eq - 2), value = a.substr(eq + 1);
    char* end = nullptr;
    if (key == "mode") {
      args->mode = value;
    } else if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (key == "check") {
      args->check = value == "1";
    } else if (key == "threads") {
      args->threads = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (value.empty() || *end != '\0' || args->threads < 1) return false;
    } else {
      return false;
    }
  }
  return !args->mode.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: geobench --mode=run|traced|meta --workload=NAME "
                 "--seed=N --threads=N [--check=1]\n";
    return 2;
  }
  gs::JsonWriter w;
  w.BeginObject();
  if (args.mode == "meta") {
    w.Key("compiler").Value(std::string("g++ ") + __VERSION__)
        .Key("build_type").Value(GEOBENCH_BUILD_TYPE)
        .Key("sanitizer").Value(Sanitizer())
        .Key("hardware_concurrency").Value(gs::ThreadPool::HardwareConcurrency());
    w.EndObject();
    std::cout << w.str() << std::endl;
    return 0;
  }

  std::vector<ClusterSpec> specs;
  if (args.threads < 1 ||
      !MakeSpecs(args.workload, args.seed, args.threads, &specs)) {
    std::cerr << "unknown workload '" << args.workload
              << "' or missing --threads\n";
    return 2;
  }

  if (args.mode == "run" || args.mode == "traced") {
    const bool traced = args.mode == "traced";
    const Pass pass = RunPass(specs, traced, args.check, args.threads);
    WritePass(pass, w);
    if (traced) WriteLayers(pass, w);
  } else {
    std::cerr << "unknown --mode=" << args.mode << "\n";
    return 2;
  }
  w.EndObject();
  std::cout << w.str() << std::endl;
  return 0;
}
