#include "replay.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <future>
#include <utility>

#include "common/check.h"
#include "common/metrics_registry.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "dag/dag_scheduler.h"
#include "dag/stage.h"
#include "exec/task_compute.h"
#include "simcore/simulator.h"

namespace geobench {
namespace {

double Since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// One map task: partition `partition` of a shuffle-write stage.
struct MapTask {
  const gs::Stage* stage = nullptr;
  int partition = 0;
};

// Builds the task's ComputeTask input as the engine does for a source
// read: the boundary leaf's records, copied.
gs::TaskComputeSpec MakeSpec(const MapTask& t) {
  const gs::Stage& stage = *t.stage;
  const gs::LeafRef leaf = gs::ResolveLeaf(*stage.output_rdd, t.partition);
  const auto& source = static_cast<const gs::SourceRdd&>(*leaf.leaf);
  gs::TaskComputeSpec spec;
  spec.output_rdd = stage.output_rdd.get();
  spec.partition = t.partition;
  spec.start.rdd = leaf.leaf;
  spec.start.partition = leaf.partition;
  spec.start.records = *source.partition(leaf.partition).records;
  spec.combine = stage.pre_output_combine ? &stage.pre_output_combine
                                          : nullptr;
  spec.output = gs::StageOutputKind::kShuffleWrite;
  spec.consumer_shuffle = &stage.consumer_shuffle->shuffle();
  return spec;
}

bool FedBySources(const gs::Stage& stage) {
  for (const gs::Rdd* leaf : gs::CollectLeaves(*stage.output_rdd)) {
    if (leaf->kind() != gs::RddKind::kSource) return false;
  }
  return true;
}

}  // namespace

ExecReplay ReplayExec(const std::vector<gs::RddPtr>& jobs, int threads) {
  // Stage vectors stay put (deque) while tasks point into them.
  std::deque<std::vector<gs::Stage>> stages;
  std::vector<MapTask> tasks;
  for (const gs::RddPtr& job : jobs) {
    stages.push_back(gs::BuildStages(job));
    for (const gs::Stage& stage : stages.back()) {
      if (stage.output != gs::StageOutputKind::kShuffleWrite ||
          !FedBySources(stage)) {
        continue;
      }
      for (int p = 0; p < stage.num_tasks(); ++p) tasks.push_back({&stage, p});
    }
  }

  ExecReplay out;
  out.tasks = static_cast<int>(tasks.size());
  for (const MapTask& t : tasks) {
    gs::TaskComputeSpec spec = MakeSpec(t);
    const auto start = std::chrono::steady_clock::now();
    gs::TaskComputeResult r = gs::ComputeTask(std::move(spec));
    out.serial_s += Since(start);
    out.records_in += static_cast<std::int64_t>(r.in_records);
    out.records_out += static_cast<std::int64_t>(r.out_records);
    out.shard_bytes += r.shard_total_bytes;
    out.shuffle_bytes[t.stage->consumer_shuffle->shuffle().id] +=
        r.shard_total_bytes;
  }

  // Waves of two tasks per worker bound the copied input held at once;
  // only SubmitBatch through the last future's get() is timed.
  gs::ThreadPool pool(threads);
  const std::size_t wave = 2 * static_cast<std::size_t>(pool.num_threads());
  for (std::size_t begin = 0; begin < tasks.size(); begin += wave) {
    const std::size_t end = std::min(tasks.size(), begin + wave);
    auto job = [](gs::TaskComputeSpec spec) {
      return [spec = std::move(spec)]() mutable {
        return gs::ComputeTask(std::move(spec));
      };
    };
    std::vector<decltype(job(gs::TaskComputeSpec{}))> fns;
    for (std::size_t i = begin; i < end; ++i) {
      fns.push_back(job(MakeSpec(tasks[i])));
    }
    std::vector<gs::TaskComputeResult> results;
    const auto start = std::chrono::steady_clock::now();
    for (auto& f : pool.SubmitBatch(std::move(fns))) {
      results.push_back(f.get());
    }
    out.pool_s += Since(start);
  }
  return out;
}

SchedReplay ReplaySched(const gs::Topology& topo,
                        const gs::TaskSchedulerConfig& config,
                        const std::vector<double>& tenant_weights,
                        const std::vector<SchedTask>& tasks) {
  gs::Simulator sim;
  gs::MetricsRegistry registry;
  gs::TaskScheduler sched(sim, topo, config, &registry);
  for (std::size_t t = 0; t < tenant_weights.size(); ++t) {
    sched.SetTenantWeight(static_cast<int>(t), tenant_weights[t]);
  }

  SchedReplay out;
  out.queue_waits.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    sim.ScheduleAt(tasks[i].submit, [&, i] {
      const SchedTask& task = tasks[i];
      gs::TaskRequest req;
      req.id = static_cast<gs::TaskId>(i);
      req.tenant = task.tenant;
      req.preferred = {task.node};
      req.on_assigned = [&, i](gs::NodeIndex node, gs::LocalityLevel) {
        const SchedTask& t = tasks[i];
        ++out.assigned;
        out.queue_waits.push_back(sim.Now() - t.submit);
        sim.Schedule(t.duration, [&sched, node, tenant = t.tenant] {
          sched.ReleaseSlot(node, tenant);
        });
      };
      sched.Submit(std::move(req));
    });
  }
  const auto start = std::chrono::steady_clock::now();
  sim.Run();
  out.replay_s = Since(start);
  out.peak_queue_depth = registry.gauge("sched.queue_depth").max_value();
  return out;
}

NetReplay ReplayNet(const gs::Topology& topo, const gs::NetworkConfig& config,
                    std::uint64_t seed,
                    const std::vector<gs::FlowRecord>& flows,
                    const std::vector<gs::LinkDegradationEvent>& degradations,
                    int threads) {
  gs::Simulator sim;
  gs::MetricsRegistry registry;
  // Declared before the network, which holds it as its solver pool.
  gs::ThreadPool pool(threads);
  gs::Network net(sim, topo, config, gs::Rng(seed).Split("net-jitter"),
                  &registry);
  net.SetSolverPool(&pool);

  NetReplay out;
  for (const gs::FlowRecord& f : flows) {
    sim.ScheduleAt(f.started, [&net, &out, &f] {
      net.StartFlow(f.src, f.dst, f.bytes, f.kind, [&out] { ++out.completed; });
    });
  }
  for (const gs::LinkDegradationEvent& d : degradations) {
    auto degrade = [&net, d](double factor) {
      net.SetWanDegradation(d.src, d.dst, factor);
      if (d.symmetric) net.SetWanDegradation(d.dst, d.src, factor);
    };
    sim.ScheduleAt(d.at, [degrade, d] { degrade(d.factor); });
    if (d.duration > 0) {
      sim.ScheduleAt(d.at + d.duration, [degrade] { degrade(1.0); });
    }
  }
  const auto start = std::chrono::steady_clock::now();
  sim.Run();
  out.replay_s = Since(start);
  out.flows = static_cast<std::int64_t>(flows.size());
  out.rate_recomputes = registry.counter("netsim.rate_recomputes").value();
  out.pair_bytes = CrossDcPairBytes(net.meter(), topo.num_datacenters());
  return out;
}

std::vector<gs::Bytes> CrossDcPairBytes(const gs::TrafficMeter& meter,
                                        int num_dcs) {
  std::vector<gs::Bytes> out;
  for (gs::DcIndex s = 0; s < num_dcs; ++s) {
    for (gs::DcIndex d = 0; d < num_dcs; ++d) {
      out.push_back(s == d ? 0 : meter.pair_bytes(s, d));
    }
  }
  return out;
}

}  // namespace geobench
