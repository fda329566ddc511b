#include "engine/job_runner.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "dag/dag_scheduler.h"
#include "engine/transport/transport.h"
#include "exec/evaluator.h"

namespace gs {
namespace {

// Serialized size of a save-acknowledgement sent to the driver.
constexpr Bytes kSaveAckBytes = 16;
// Fraction of a transfer producer's compute after which its push departs
// (intra-task pipelining, Sec. IV-B).
constexpr double kEarlyPushFraction = 0.3;
// A node is preferred for a reduce task if it stores at least this
// fraction of the shard's input (Spark's REDUCER_PREF_LOCS_FRACTION).
constexpr double kReducerPrefFraction = 0.2;
// Fraction of a reduce task's compute after which an injected failure
// strikes (the paper's Fig. 2 experiment).
constexpr double kFailurePoint = 0.5;
// Speculation (spark.speculation.quantile / .multiplier): backups start
// once this fraction of a stage finished, for tasks running longer than
// this multiple of the median duration.
constexpr double kSpeculationQuantile = 0.75;
constexpr double kSpeculationMultiplier = 1.5;

}  // namespace

JobRunner::JobRunner(GeoCluster& cluster, RddPtr final_rdd, ActionKind action,
                     Rng rng, JobId job_id, int tenant)
    : cluster_(cluster),
      sim_(cluster.simulator()),
      topo_(cluster.topology()),
      config_(cluster.config()),
      final_rdd_(std::move(final_rdd)),
      action_(action),
      rng_(std::move(rng)),
      job_id_(job_id),
      tenant_(tenant),
      pairing_(*this),
      coded_(*this) {}

JobRunner::~JobRunner() {
  // Compute jobs of discarded attempts are never joined (their stale
  // OnGatherDone no-ops); let them finish before the stage structures
  // they reference go away. An unsent wave must reach the pool first, or
  // its packaged tasks die with this runner and nothing runs them.
  FlushComputeBatch();
  cluster_.compute_pool().WaitIdle();
}

void JobRunner::Start() {
  metrics_.started = sim_.Now();

  std::vector<Stage> stages = BuildStages(final_rdd_);
  for (Stage& s : stages) {
    auto run = std::make_unique<StageRun>();
    run->stage = std::move(s);
    run->metrics.id = run->stage.id;
    run->metrics.name = run->stage.output_rdd->name();
    run->metrics.num_tasks = run->stage.num_tasks();
    stage_runs_.push_back(std::move(run));
  }
  result_stage_ = static_cast<StageId>(stage_runs_.size()) - 1;
  GS_CHECK(stage_run(result_stage_).stage.output ==
           StageOutputKind::kResult);
  results_.resize(stage_run(result_stage_).stage.num_tasks());

  PruneCachedStages();
  if (config_.scheme == Scheme::kCentralized) {
    cluster_.CentralizeInputs(final_rdd_, metrics_,
                              [this] { SubmitReadyStages(); });
  } else {
    SubmitReadyStages();
  }
}

RunResult JobRunner::TakeResult() {
  GS_CHECK_MSG(job_done_, "TakeResult before the job completed");

  for (const auto& sr : stage_runs_) {
    if (!sr->skipped) metrics_.stages.push_back(sr->metrics);
  }

  if (MetricsRegistry* reg = cluster_.metrics_registry()) {
    auto add = [reg](const char* name, std::int64_t n) {
      reg->counter(name).Add(n);
    };
    add("engine.jobs_completed", 1);
    add("engine.task_failures", metrics_.task_failures);
    add("engine.fetch_failures", metrics_.fetch_failures);
    add("engine.node_crashes", metrics_.node_crashes);
    add("engine.map_resubmissions", metrics_.map_resubmissions);
    add("engine.push_retries", metrics_.push_retries);
    add("engine.push_fallbacks", metrics_.push_fallbacks);
    // Registered only under adaptivity so metric snapshots of non-adaptive
    // runs stay identical to the seed goldens.
    if (config_.adaptive.enabled) {
      add("engine.adaptive_replans", metrics_.replans);
      add("engine.adaptive_receivers_moved", metrics_.receivers_moved);
      add("engine.adaptive_fallbacks", metrics_.adaptive_fallbacks);
    }
    if (config_.coded.enabled) {
      add("engine.coded_groups", metrics_.coded_groups);
      add("engine.coded_multicast_bytes", metrics_.coded_multicast_bytes);
      add("engine.coded_residual_bytes", metrics_.coded_residual_bytes);
      add("engine.coded_local_bytes", metrics_.coded_local_bytes);
    }
  }

  RunResult result;
  result.metrics = metrics_;
  for (auto& partition_records : results_) {
    result.records.insert(result.records.end(),
                          std::make_move_iterator(partition_records.begin()),
                          std::make_move_iterator(partition_records.end()));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Stage orchestration
// ---------------------------------------------------------------------------

void JobRunner::PruneCachedStages() {
  // Children have higher stage ids than their parents, so a reverse pass
  // visits consumers before producers. Start with everything potentially
  // skippable except the result stage; un-skip what a live consumer needs.
  std::vector<bool> needed(stage_runs_.size(), false);
  needed[result_stage_] = true;
  for (StageId id = static_cast<StageId>(stage_runs_.size()) - 1; id >= 0;
       --id) {
    StageRun& sr = stage_run(id);
    if (!needed[id]) continue;

    // Which boundaries do this stage's tasks actually reach?
    bool reaches_transfer = false;
    std::vector<ShuffleId> reached_shuffles;
    for (int p = 0; p < sr.stage.num_tasks(); ++p) {
      EvalCut cut =
          FindEvalCut(*sr.stage.output_rdd, p, cluster_.blocks());
      if (cut.is_cached_cut) continue;
      if (cut.rdd->kind() == RddKind::kTransferred) {
        reaches_transfer = true;
      } else if (cut.rdd->kind() == RddKind::kShuffled) {
        reached_shuffles.push_back(
            static_cast<const ShuffledRdd*>(cut.rdd)->shuffle().id);
      }
    }
    for (StageId parent : sr.stage.barrier_parents) {
      const Stage& ps = stage_run(parent).stage;
      GS_CHECK(ps.consumer_shuffle != nullptr);
      const ShuffleId sid = ps.consumer_shuffle->shuffle().id;
      if (std::find(reached_shuffles.begin(), reached_shuffles.end(), sid) !=
          reached_shuffles.end()) {
        needed[parent] = true;
      }
    }
    if (sr.stage.starts_at_transfer) {
      if (reaches_transfer) {
        needed[sr.stage.transfer_producer] = true;
      } else {
        sr.standalone = true;  // fully cache-covered: run without pairing
      }
    }
  }
  for (StageId id = 0; id < static_cast<StageId>(stage_runs_.size()); ++id) {
    if (!needed[id]) {
      StageRun& sr = stage_run(id);
      sr.skipped = sr.submitted = sr.done = true;
    }
  }
}

void JobRunner::SubmitReadyStages() {
  // One pass suffices: submitting a stage completes nothing synchronously,
  // so it never makes another stage ready.
  for (auto& sr : stage_runs_) {
    // Receiver stages are co-submitted with their producer, not by
    // readiness — unless cache coverage made them standalone.
    if (sr->submitted || sr->done || sr->is_receiver()) continue;
    const auto& parents = sr->stage.barrier_parents;
    if (std::all_of(parents.begin(), parents.end(), [this](StageId p) {
          return stage_runs_[p]->done;
        })) {
      SubmitStage(sr->stage.id);
    }
  }
}

void JobRunner::SubmitStage(StageId id) {
  StageRun& sr = stage_run(id);
  GS_CHECK(!sr.submitted);
  sr.submitted = true;
  sr.metrics.submitted = sim_.Now();

  // Create task states immediately; scheduling happens after the driver's
  // submit delay.
  sr.tasks.clear();
  sr.partition_done.assign(sr.stage.num_tasks(), false);
  for (int p = 0; p < sr.stage.num_tasks(); ++p) {
    auto task = std::make_unique<TaskRun>();
    task->stage = id;
    task->partition = p;
    sr.tasks.push_back(std::move(task));
  }

  sim_.Schedule(config_.cost.stage_submit_delay, [this, id] {
    // Receiver tasks are submitted one by one as their pushes land
    // (PushPairing); every other stage's tasks go to the scheduler now.
    StageRun& launched = stage_run(id);
    if (launched.is_receiver()) return;
    for (auto& task : launched.tasks) SubmitTask(*task);
  });

  if (sr.is_producer()) {
    // Pair a transfer producer with its receiver stage: the aggregator
    // datacenters are decided now, before the producer runs (Sec. IV-D),
    // and the receiver stage is co-submitted so pushes pipeline with the
    // producing tasks.
    pairing_.PairStage(sr);
    const StageRun& consumer = stage_run(sr.stage.transfer_consumer);
    // The receiver stage must not also wait on unfinished shuffles; the
    // Dataset facade cannot build such graphs.
    for (StageId parent : consumer.stage.barrier_parents) {
      GS_CHECK_MSG(stage_runs_[parent]->done,
                   "receiver stage has unfinished shuffle parents");
    }
    SubmitStage(sr.stage.transfer_consumer);
  }
}

void JobRunner::OnStageDone(StageId id) {
  StageRun& sr = stage_run(id);
  GS_CHECK(!sr.done);
  // Coded shuffle: a shuffle-write stage completes only after the coded
  // exchange consolidated every shard at its home datacenter — the barrier
  // the reduce stage's placement and gathers rely on (docs/CODED.md).
  if (coded_.Start(sr)) return;
  sr.done = true;
  sr.metrics.completed = sim_.Now();
  if (TraceCollector* trace = cluster_.trace()) {
    TraceSpan span;
    span.kind = TraceSpan::Kind::kStage;
    span.category = "stage";
    span.name = "stage" + std::to_string(id) + " (" + sr.metrics.name + ")";
    span.dc = topo_.dc_of(cluster_.driver_node());
    span.start = sr.metrics.submitted;
    span.end = sim_.Now();
    trace->Add(std::move(span));
  }
  // Reduce tasks parked by a fetch failure on this stage's shuffle can run
  // again now that the missing map outputs are regenerated.
  if (auto parked = waiting_on_stage_.extract(id)) {
    for (TaskRun* t : parked.mapped()) SubmitTask(*t);
  }
  if (id == result_stage_) {
    job_done_ = true;
    metrics_.completed = sim_.Now();
    cluster_.OnRunnerDone(job_id_);
    return;
  }
  SubmitReadyStages();
}

// ---------------------------------------------------------------------------
// Task lifecycle
// ---------------------------------------------------------------------------

std::vector<NodeIndex> JobRunner::PreferredNodes(const StageRun& sr,
                                                 int partition) {
  EvalCut cut = FindEvalCut(*sr.stage.output_rdd, partition,
                            cluster_.blocks());
  if (cut.is_cached_cut) {
    return cluster_.blocks().Locations(
        BlockId::Cached(cut.rdd->id(), cut.partition));
  }
  switch (cut.rdd->kind()) {
    case RddKind::kSource: {
      const auto& src = static_cast<const SourceRdd&>(*cut.rdd);
      return {cluster_.SourceLocation(src, cut.partition)};
    }
    case RddKind::kShuffled: {
      const auto& s = static_cast<const ShuffledRdd&>(*cut.rdd);
      std::vector<NodeIndex> prefs =
          cluster_.tracker().PreferredShardLocations(
              s.shuffle().id, cut.partition, kReducerPrefFraction);
      coded_.AppendAlternates(s.shuffle().id, cut.partition, &prefs);
      return prefs;
    }
    default:
      return {};
  }
}

void JobRunner::SubmitTask(TaskRun& task) {
  StageRun& sr = stage_run(task.stage);
  TaskRequest request;
  request.id = SchedulerTaskId(task);
  if (sr.is_receiver()) {
    // Receiver write phase: the pushed data already landed on task.node.
    GS_CHECK(task.node != kNoNode);
    request.preferred = {task.node};
    request.policy = PlacementPolicy::kNodeOnly;
  } else {
    request.preferred = PreferredNodes(sr, task.partition);
    // Centralized: "After all data is centralized within a cluster, Spark
    // works within a datacenter" (Sec. V-A): tasks never spill back out.
    // Coded shuffle: the exchange consolidated every shard at its home
    // datacenter (docs/CODED.md); a reducer scheduled anywhere else
    // re-fetches the consolidated shard across the WAN and forfeits the
    // locality the replication paid for. The preference list holds only
    // home-datacenter nodes, so kDcOnly keeps the read local (and still
    // escapes if the home datacenter loses every worker).
    if (!request.preferred.empty() &&
        (config_.scheme == Scheme::kCentralized ||
         (config_.coded.enabled && IsReducerStage(sr)))) {
      request.policy = PlacementPolicy::kDcOnly;
    }
  }
  TaskRun* task_ptr = &task;
  const int epoch = task.epoch;
  request.tenant = tenant_;
  request.on_assigned = [this, task_ptr, epoch](NodeIndex node,
                                                LocalityLevel) {
    if (task_ptr->epoch != epoch) {
      // The task was restarted or parked while this assignment was in
      // flight; give the slot back (a fresh submission is already queued).
      cluster_.scheduler().ReleaseSlot(node, tenant_);
      return;
    }
    OnAssigned(*task_ptr, node);
  };
  cluster_.scheduler().Submit(std::move(request));
}

void JobRunner::OnAssigned(TaskRun& task, NodeIndex node) {
  StageRun& sr = stage_run(task.stage);
  if (!cluster_.scheduler().node_up(node)) {
    // The node crashed between the slot grant and its delivery; the slot
    // died with the executor. Balance the tenant's busy accounting and
    // queue the task again.
    cluster_.scheduler().ReleaseSlot(node, tenant_);
    SubmitTask(task);
    return;
  }
  task.node = node;
  task.assigned = true;
  task.assigned_at = sim_.Now();
  if (sr.metrics.first_task_started == 0) {
    sr.metrics.first_task_started = sim_.Now();
  }

  // A transfer producer's assignment fixes the pairing for its receiver:
  // decide the receiver's destination node now, so the push can start the
  // instant the producer finishes.
  if (sr.is_producer()) pairing_.PlaceReceiver(sr, task);

  if (sr.is_receiver()) {
    // Receiver write phase: the slot was requested after the data landed.
    ExecuteReceiver(task);
    return;
  }
  sim_.Schedule(config_.cost.task_launch_overhead,
                OnThisAttempt(task, [this](TaskRun& t) { StartGather(t); }));
}

void JobRunner::StartGather(TaskRun& task) {
  StageRun& sr = stage_run(task.stage);
  EvalCut cut = FindEvalCut(*sr.stage.output_rdd, task.partition,
                            cluster_.blocks());
  task.cut_rdd = cut.rdd;
  task.cut_partition = cut.partition;
  task.gathered.clear();
  task.gather_srcs.clear();
  task.in_bytes = 0;
  task.gather_is_processed = false;
  task.fetch_failed_sid = -1;
  task.fetch_failed_maps.clear();
  task.pending_gathers = 1;  // released at the end of this function
  auto arrived = [this](TaskRun& t) { GatherArrived(t); };

  auto add_disk_read = [&](Bytes bytes) {
    ++task.pending_gathers;
    cluster_.disk().Read(task.node, bytes, OnThisAttempt(task, arrived));
  };
  auto add_flow = [&](NodeIndex from, Bytes bytes, FlowKind kind) {
    ++task.pending_gathers;
    task.gather_srcs.push_back(from);
    ShipShard(from, task.node, bytes, kind, OnThisAttempt(task, arrived));
  };

  if (cut.is_cached_cut) {
    const BlockId id = BlockId::Cached(cut.rdd->id(), cut.partition);
    std::vector<NodeIndex> locs = cluster_.blocks().Locations(id);
    GS_CHECK(!locs.empty());
    NodeIndex from = locs.front();
    for (NodeIndex loc : locs) {
      if (loc == task.node) from = loc;
    }
    std::optional<Block> block = cluster_.blocks().Get(from, id);
    GS_CHECK(block.has_value());
    task.gathered = *block->records;
    task.in_bytes = block->bytes;
    task.gather_is_processed = true;
    if (from == task.node) {
      add_disk_read(0);  // in-memory cache hit
    } else {
      add_flow(from, block->bytes, FlowKind::kOther);
    }
  } else if (cut.rdd->kind() == RddKind::kSource) {
    const auto& src = static_cast<const SourceRdd&>(*cut.rdd);
    const SourceRdd::Partition& part = src.partition(cut.partition);
    NodeIndex loc = cluster_.SourceLocation(src, cut.partition);
    task.gathered = *part.records;
    task.in_bytes = part.bytes;
    if (loc == task.node) {
      add_disk_read(part.bytes);
    } else {
      add_flow(loc, part.bytes, FlowKind::kOther);
    }
  } else if (cut.rdd->kind() == RddKind::kShuffled) {
    // Fetch-based shuffle read: one flow per remote source node, one disk
    // read covering all local shards (Sec. II-A).
    const auto& s = static_cast<const ShuffledRdd&>(*cut.rdd);
    const ShuffleId sid = s.shuffle().id;
    const int shard = cut.partition;
    const int num_maps = cluster_.tracker().num_map_partitions(sid);
    // Fetch-failure detection (Spark semantics): lost map outputs — a
    // crashed node's shuffle files, or outputs another reducer already
    // invalidated — are discovered here, while building the fetch list.
    // The attempt is then doomed, but the fetch still runs for the blocks
    // that exist: concurrent fetches from healthy nodes have moved their
    // bytes by the time the dead server surfaces, and a restarted reducer
    // discards and re-fetches everything. Over the WAN that waste is
    // exactly the paper's Fig. 2 penalty for fetch-based shuffle; under
    // Push/Aggregate the same waste stays datacenter-local. GatherArrived
    // fails the task once the partial gather lands.
    std::unordered_map<NodeIndex, Bytes> remote_bytes;
    Bytes local_bytes = 0;
    std::vector<RecordsPtr> found;  // gathered only if nothing is missing
    for (int m = 0; m < num_maps; ++m) {
      const MapOutputLocation& out = cluster_.tracker().Output(sid, m, shard);
      std::optional<Block> block =
          out.node == kNoNode ? std::nullopt
                              : cluster_.blocks().Get(
                                    out.node, BlockId::Shuffle(sid, m, shard));
      if (!block.has_value()) {
        task.fetch_failed_sid = sid;
        task.fetch_failed_maps.push_back(m);
        continue;
      }
      found.push_back(block->records);
      task.in_bytes += out.bytes;
      if (out.node == task.node) {
        local_bytes += out.bytes;
      } else {
        remote_bytes[out.node] += out.bytes;
      }
    }
    if (task.fetch_failed_maps.empty()) {
      for (const RecordsPtr& records : found) {
        task.gathered.insert(task.gathered.end(), records->begin(),
                             records->end());
      }
    }
    add_disk_read(local_bytes);
    // Deterministic flow start order.
    std::vector<std::pair<NodeIndex, Bytes>> sources(remote_bytes.begin(),
                                                     remote_bytes.end());
    std::sort(sources.begin(), sources.end());
    for (const auto& [from, bytes] : sources) {
      add_flow(from, bytes, FlowKind::kShuffleFetch);
    }
  } else {
    GS_CHECK_MSG(false, "unexpected gather boundary: "
                            << cut.rdd->name());
  }

  // The gathered records are complete right here — the flows and disk
  // reads above only simulate their cost — so the task's real compute can
  // start now and overlap, in wall-clock time, with the simulated gather
  // (and with every other task's compute). A doomed attempt (missing map
  // outputs) skips the submit; it fails at GatherArrived.
  if (task.fetch_failed_maps.empty()) SubmitCompute(task);

  GatherArrived(task);  // release the guard
}

void JobRunner::SubmitCompute(TaskRun& task) {
  TaskComputeSpec spec = ComputeSpec(stage_run(task.stage), task.partition,
                                     !config_.disable_map_side_combine);
  spec.start.rdd = task.cut_rdd;
  spec.start.partition = task.cut_partition;
  spec.start.records = std::move(task.gathered);
  spec.start.already_processed = task.gather_is_processed;
  task.gathered.clear();
  std::packaged_task<TaskComputeResult()> job(
      [spec = std::move(spec)]() mutable {
        return ComputeTask(std::move(spec));
      });
  task.compute = job.get_future();
  compute_batch_.push_back(std::move(job));
  if (!compute_flush_scheduled_) {
    compute_flush_scheduled_ = true;
    sim_.Schedule(0, [this] { FlushComputeBatch(); });
  }
}

void JobRunner::FlushComputeBatch() {
  compute_flush_scheduled_ = false;
  if (compute_batch_.empty()) return;
  // Each task already holds its packaged task's future (SubmitCompute);
  // the batch's completion futures are dropped.
  cluster_.compute_pool().SubmitBatch(std::exchange(compute_batch_, {}));
}

void JobRunner::GatherArrived(TaskRun& task) {
  GS_CHECK(task.pending_gathers > 0);
  if (--task.pending_gathers > 0) return;
  if (!task.fetch_failed_maps.empty()) {
    const ShuffleId sid = task.fetch_failed_sid;
    const std::vector<int> missing = std::move(task.fetch_failed_maps);
    task.fetch_failed_maps.clear();
    task.fetch_failed_sid = -1;
    HandleFetchFailure(task, sid, missing);
    return;
  }
  OnGatherDone(task);
}

void JobRunner::OnGatherDone(TaskRun& task) {
  StageRun& sr = stage_run(task.stage);

  // Join the compute job submitted at StartGather. This is a wall-clock
  // join only — in simulated time the compute "happens" over the cpu
  // interval scheduled below, whose length needs the output sizes the job
  // produced. Exceptions thrown by workload lambdas resurface here, on
  // the event loop.
  GS_CHECK(task.compute.valid());
  FlushComputeBatch();  // the wave may still be unsent in this instant
  TaskComputeResult out = task.compute.get();
  SimTime cpu = config_.cost.CpuTime(task.in_bytes, out.out_bytes) +
                config_.cost.record_cpu *
                    static_cast<double>(out.in_records + out.out_records);
  cpu *= StragglerFactor();

  // Coded shuffle buys WAN locality with compute: each replicated map
  // partition executes r times (once per replica datacenter, in parallel
  // on spare slots, so the stage span is unchanged), and the job pays
  // (r-1) extra copies of this task's compute seconds — the cost side of
  // bench_coded's crossover (docs/CODED.md).
  if (config_.coded.enabled &&
      sr.stage.output == StageOutputKind::kShuffleWrite) {
    metrics_.coded_replica_compute_seconds +=
        (config_.coded.redundancy_r - 1) * cpu;
  }

  // Failure injection (Sec. V, Fig. 2): reduce tasks may fail partway
  // through their first attempt.
  const bool may_fail = IsReducerStage(sr) && task.attempt == 0 &&
                        config_.fault.reduce_failure_prob > 0;
  if (may_fail && rng_.Bernoulli(config_.fault.reduce_failure_prob)) {
    sim_.Schedule(cpu * kFailurePoint,
                  OnThisAttempt(task, [this](TaskRun& t) { OnTaskFailed(t); }));
    return;
  }

  // Intra-task pipelining (Sec. IV-B): a transfer producer starts pushing
  // "as soon as there is a fraction of data available, without waiting
  // until the entire output dataset is ready". The push flow (sized for
  // the full output) departs once an early fraction of the compute is
  // done; the task itself completes at full compute time.
  if (sr.is_producer()) {
    auto push = [this, records = std::move(out.records),
                 push_bytes = out.compressed_bytes](TaskRun& t) mutable {
      pairing_.NotifyReceiver(t, std::move(records), push_bytes);
    };
    auto finish = [this, fills = std::move(out.cache_fills)](TaskRun& t) {
      StoreCacheFills(t, fills);
      FinishTask(t);
    };
    sim_.Schedule(cpu * kEarlyPushFraction,
                  OnThisAttempt(task, std::move(push)));
    sim_.Schedule(cpu, OnThisAttempt(task, std::move(finish)));
    return;
  }
  CommitAfter(task, cpu, std::move(out));
}

void JobRunner::CommitAfter(TaskRun& task, SimTime cpu, TaskComputeResult out) {
  auto commit = [this, out = std::move(out)](TaskRun& t) mutable {
    StoreCacheFills(t, out.cache_fills);
    OnComputeDone(t, std::move(out));
  };
  sim_.Schedule(cpu, OnThisAttempt(task, std::move(commit)));
}

void JobRunner::StoreCacheFills(
    const TaskRun& task, const std::vector<EvalResult::CacheFill>& fills) {
  for (const EvalResult::CacheFill& fill : fills) {
    cluster_.blocks().Put(task.node, BlockId::Cached(fill.rdd, fill.partition),
                          fill.records);
  }
}

void JobRunner::OnTaskFailed(TaskRun& task) {
  StageRun& sr = stage_run(task.stage);
  ++sr.metrics.task_failures;
  ++metrics_.task_failures;
  GS_LOG_INFO << "task " << sr.stage.id << "/" << task.partition
              << " failed on " << topo_.node(task.node).name << ", retrying";
  RestartTask(task);
}

void JobRunner::ResetAttempt(TaskRun& task) {
  ++task.epoch;
  ++task.attempt;
  task.assigned = false;
  task.node = kNoNode;
  task.gather_srcs.clear();
  task.gathered.clear();
  task.pending_gathers = 0;
  task.in_bytes = 0;
}

void JobRunner::OnComputeDone(TaskRun& task, TaskComputeResult out) {
  StageRun& sr = stage_run(task.stage);

  switch (sr.stage.output) {
    case StageOutputKind::kResult: {
      Bytes bytes;
      if (action_ == ActionKind::kCollect) {
        bytes = out.out_bytes;
      } else {
        // Save: output persists on the workers via HDFS (replication
        // factor 3: one local write plus two in-datacenter copies); the
        // driver gets an ack with the partition's record count.
        out.records = {Record{std::to_string(task.partition),
                              static_cast<std::int64_t>(out.out_records)}};
        bytes = kSaveAckBytes;
        cluster_.disk().Write(task.node, 3 * out.out_bytes, [] {});
      }
      results_[task.partition] = std::move(out.records);
      cluster_.network().StartFlow(
          task.node, cluster_.driver_node(), bytes, FlowKind::kCollect,
          OnThisAttempt(task, [this](TaskRun& t) { FinishTask(t); }));
      break;
    }
    case StageOutputKind::kShuffleWrite: {
      // The records were split per reduce shard — and each shard's
      // compressed size measured — inside the compute job; only the
      // simulated disk write and block registration happen here.
      const ShuffleInfo& info = sr.stage.consumer_shuffle->shuffle();
      const int num_shards = info.partitioner->num_shards();
      const int num_maps = sr.stage.output_rdd->num_partitions();
      cluster_.tracker().RegisterShuffle(info.id, num_maps, num_shards);
      cluster_.disk().Write(
          task.node, out.shard_total_bytes,
          OnThisAttempt(task, [this, sid = info.id,
                               shards = std::move(out.shards),
                               shard_bytes = std::move(out.shard_bytes)](
                                  TaskRun& t) mutable {
            std::vector<RecordsPtr> recs;
            recs.reserve(shards.size());
            for (int k = 0; k < static_cast<int>(shards.size()); ++k) {
              recs.push_back(MakeRecords(std::move(shards[k])));
              cluster_.blocks().PutWithSize(
                  t.node, BlockId::Shuffle(sid, t.partition, k), recs.back(),
                  shard_bytes[k]);
            }
            cluster_.tracker().RegisterMapOutput(sid, t.partition, t.node,
                                                 shard_bytes);
            coded_.PutReplicaOutputs(sid, t.partition, t.node, recs,
                                     shard_bytes);
            FinishTask(t);
          }));
      break;
    }
    case StageOutputKind::kTransferProduce: {
      // Hand the partition to the paired receiver; the push flow proceeds
      // after this task's slot is released (pipelining: the WAN transfer
      // overlaps later map tasks, Fig. 1b). No disk write on the producer
      // (Sec. IV-B, "unnecessary disk I/O is avoided").
      pairing_.NotifyReceiver(task, std::move(out.records),
                              out.compressed_bytes);
      FinishTask(task);
      break;
    }
  }
}

void JobRunner::ExecuteReceiver(TaskRun& receiver) {
  StageRun& sr = stage_run(receiver.stage);
  // Evaluate the receiver's narrow chain starting at the TransferredRdd.
  LeafRef leaf = ResolveLeaf(*sr.stage.output_rdd, receiver.partition);
  GS_CHECK(leaf.leaf->kind() == RddKind::kTransferred);

  // Receivers combine whenever the stage asks: disable_map_side_combine
  // only switches off the *map-side* pass (the Sec. IV-C3 knob); the
  // receiver's combine is the aggregation the transfer exists for.
  TaskComputeSpec spec =
      ComputeSpec(sr, receiver.partition, /*combine=*/true);
  spec.start.rdd = leaf.leaf;
  spec.start.partition = leaf.partition;
  // Copy, don't consume: the inbox is retained so a crash of this node can
  // be recovered by re-pushing instead of recomputing the producer.
  const PushPairing::Inbox& inbox = pairing_.inbox(receiver);
  spec.start.records = *inbox.records;
  receiver.in_bytes = inbox.bytes;

  // One compute path for every task kind: receivers run through the pool
  // too, with an immediate join (their write phase is entered with the
  // output size in hand, so there is no gather window to overlap).
  TaskComputeResult out = cluster_.compute_pool()
                              .Submit([spec = std::move(spec)]() mutable {
                                return ComputeTask(std::move(spec));
                              })
                              .get();
  // Receiving is I/O-bound; charge a nominal CPU cost for deserialization.
  const SimTime cpu = config_.cost.CpuTime(0, out.out_bytes / 4);
  CommitAfter(receiver, cpu, std::move(out));
}

TaskComputeSpec JobRunner::ComputeSpec(const StageRun& sr, int partition,
                                       bool combine) const {
  TaskComputeSpec spec;
  spec.output_rdd = sr.stage.output_rdd.get();
  spec.partition = partition;
  if (combine && sr.stage.pre_output_combine) {
    spec.combine = &sr.stage.pre_output_combine;
  }
  spec.output = sr.stage.output;
  if (sr.stage.consumer_shuffle != nullptr) {
    spec.consumer_shuffle = &sr.stage.consumer_shuffle->shuffle();
  }
  return spec;
}

void JobRunner::FinishTask(TaskRun& task) {
  StageRun& sr = stage_run(task.stage);
  GS_CHECK(!task.done);
  task.done = true;
  cluster_.scheduler().ReleaseSlot(task.node, tenant_);
  // Losing attempt of a speculated partition: its twin already finished.
  if (sr.partition_done[task.partition]) return;
  sr.partition_done[task.partition] = true;
  sr.completed_durations.push_back(sim_.Now() - task.assigned_at);
  if (MetricsRegistry* reg = cluster_.metrics_registry()) {
    // 0.1s .. ~6500s in x3 steps — spans quick maps to straggler reducers.
    reg->histogram("engine.task_duration_s", ExponentialBounds(0.1, 3, 11))
        .Observe(sim_.Now() - task.assigned_at);
  }
  if (TraceCollector* trace = cluster_.trace()) {
    TraceSpan span;
    span.kind = TraceSpan::Kind::kTask;
    span.category = sr.is_receiver()                              ? "receiver"
                    : IsReducerStage(sr)                          ? "reduce"
                    : sr.stage.output == StageOutputKind::kResult ? "result"
                                                                  : "map";
    span.name = "stage" + std::to_string(sr.stage.id) + "/part" +
                std::to_string(task.partition) +
                (task.speculative ? "#spec" : task.attempt > 0 ? "#retry" : "");
    span.dc = topo_.dc_of(task.node);
    span.node = task.node;
    span.start = task.assigned_at;
    span.end = sim_.Now();
    trace->Add(std::move(span));
  }
  if (++sr.tasks_done == static_cast<int>(sr.tasks.size())) {
    OnStageDone(sr.stage.id);
  } else {
    MaybeSpeculate(sr);
  }
}

void JobRunner::MaybeSpeculate(StageRun& sr) {
  if (!config_.speculation.enabled || sr.done) return;
  // Transfer pairs (producer or receiver) keep their one-to-one pairing;
  // only plain map/reduce/result stages speculate, like Spark excludes
  // custom-committed outputs.
  if (sr.stage.starts_at_transfer ||
      sr.stage.output == StageOutputKind::kTransferProduce) {
    return;
  }
  const int total = static_cast<int>(sr.tasks.size());
  if (sr.tasks_done < kSpeculationQuantile * total) return;

  std::vector<double> durations = sr.completed_durations;
  std::sort(durations.begin(), durations.end());
  const double median = durations[durations.size() / 2];
  const double threshold =
      std::max(kSpeculationMultiplier * median, Millis(100));

  for (auto& task : sr.tasks) {
    if (task->done || !task->assigned || task->has_backup ||
        sr.partition_done[task->partition]) {
      continue;
    }
    if (sim_.Now() - task->assigned_at <= threshold) continue;
    task->has_backup = true;
    auto backup = std::make_unique<TaskRun>();
    backup->stage = sr.stage.id;
    backup->partition = task->partition;
    backup->speculative = true;
    backup->attempt = 1;  // backups skip first-attempt failure injection
    TaskRun* backup_ptr = backup.get();
    sr.backups.push_back(std::move(backup));
    GS_LOG_INFO << "speculating stage " << sr.stage.id << " partition "
                << task->partition;
    SubmitTask(*backup_ptr);
  }

  // Stragglers are also detected between completions: poll while any
  // un-backed-up task is still running.
  const bool pending =
      std::any_of(sr.tasks.begin(), sr.tasks.end(), [&](const auto& task) {
        return !task->done && !task->has_backup &&
               !sr.partition_done[task->partition];
      });
  if (pending && !sr.spec_check_scheduled) {
    sr.spec_check_scheduled = true;
    StageRun* srp = &sr;
    sim_.Schedule(std::max(Millis(100), median / 2), [this, srp] {
      srp->spec_check_scheduled = false;
      MaybeSpeculate(*srp);
    });
  }
}

// ---------------------------------------------------------------------------
// Fault recovery
// ---------------------------------------------------------------------------

void JobRunner::OnNodeCrashed(NodeIndex node) {
  if (job_done_) return;
  ++metrics_.node_crashes;
  for (auto& srp : stage_runs_) {
    StageRun& sr = *srp;
    if (sr.skipped || !sr.submitted) continue;
    auto handle = [&](TaskRun& task) {
      if (sr.is_receiver()) {
        // Completed receivers lose their written shuffle blocks with the
        // node; that is discovered lazily at fetch time like any map loss.
        if (task.done || task.node != node) return;
        ++sr.metrics.task_failures;
        ++metrics_.task_failures;
        pairing_.RecoverReceiver(task);
        return;
      }
      if (task.done) {
        // Finished transfer producer whose push is still in flight from
        // this node: the buffered output died with the executor, so the
        // producer task itself must be re-run (its receiver is reset by
        // RestartTask/ResubmitCompletedTask). Finished *map* outputs stay
        // registered until a fetch failure (lazy detection).
        if (task.node == node && pairing_.DropUnlandedPush(sr, task)) {
          ResubmitCompletedTask(sr, task);
        }
        return;
      }
      if (!task.assigned) return;  // queued tasks simply avoid the node
      const bool hit =
          task.node == node ||
          std::find(task.gather_srcs.begin(), task.gather_srcs.end(), node) !=
              task.gather_srcs.end();
      if (!hit) return;
      ++sr.metrics.task_failures;
      ++metrics_.task_failures;
      RestartTask(task);
    };
    for (auto& t : sr.tasks) handle(*t);
    for (auto& t : sr.backups) handle(*t);
  }
}

void JobRunner::OnWanDegraded(DcIndex src, DcIndex dst) {
  if (job_done_ || !config_.adaptive.enabled) return;
  // A pinned plan (the offline-oracle bench arm) never moves.
  if (config_.adaptive.pin_dc != kNoDc) return;
  GS_LOG_INFO << "adaptive: WAN change on dc" << src << "->dc" << dst
              << ", replanning job " << job_id_;
  pairing_.ReplanReceivers();
}

void JobRunner::RestartTask(TaskRun& task) {
  StageRun& sr = stage_run(task.stage);
  GS_CHECK(!task.done);
  GS_LOG_INFO << "restarting task " << sr.stage.id << "/" << task.partition
              << " (attempt " << task.attempt + 1 << ")";
  // A running transfer producer that already pushed loses an unlanded
  // push with this node.
  pairing_.DropUnlandedPush(sr, task);
  // Frees the held slot when the task is restarted because a gather
  // *source* died; with the task's own node down only the tenant's busy
  // count balances (the slot died with the executor).
  cluster_.scheduler().ReleaseSlot(task.node, tenant_);
  ResetAttempt(task);
  SubmitTask(task);
}

void JobRunner::ResubmitCompletedTask(StageRun& sr, TaskRun& task) {
  GS_CHECK(task.done);
  task.done = false;
  --sr.tasks_done;
  sr.partition_done[task.partition] = false;
  // The stage will re-fire OnStageDone when the re-run completes.
  sr.done = false;
  ResetAttempt(task);
  if (sr.is_receiver()) {
    pairing_.RerunReceiver(task);
  } else {
    SubmitTask(task);
  }
}

void JobRunner::HandleFetchFailure(TaskRun& task, ShuffleId sid,
                                   const std::vector<int>& missing) {
  StageRun& sr = stage_run(task.stage);
  ++metrics_.fetch_failures;
  ++sr.metrics.task_failures;
  ++metrics_.task_failures;
  GS_LOG_INFO << "fetch failure: stage " << sr.stage.id << "/"
              << task.partition << " is missing " << missing.size()
              << " map output(s) of shuffle " << sid;
  // Fail this attempt: give the slot back and park until the parent stage
  // regenerates the lost outputs. The eventual retry re-fetches the whole
  // shard — over the WAN under fetch-based shuffle, within the aggregator
  // datacenter under Push/Aggregate (the paper's Fig. 2 asymmetry).
  cluster_.scheduler().ReleaseSlot(task.node, tenant_);
  ResetAttempt(task);

  // Invalidate only outputs that are still unusable *now*. This doomed
  // attempt observed the loss a gather-RTT ago; the parent map may have
  // re-run and re-registered in the meantime (another reducer's failure
  // already triggered recovery). Clobbering the fresh registration would
  // restart recovery and can live-lock the job: stale in-flight gathers
  // and map re-runs invalidating each other forever.
  const int shard = task.cut_partition;
  for (int m : missing) {
    const MapOutputLocation& cur = cluster_.tracker().Output(sid, m, shard);
    if (cur.node != kNoNode &&
        cluster_.blocks().Has(cur.node, BlockId::Shuffle(sid, m, shard))) {
      continue;  // regenerated since this attempt built its fetch list
    }
    cluster_.tracker().InvalidateMapOutput(sid, m);
  }

  auto writer = std::find_if(
      stage_runs_.begin(), stage_runs_.end(), [sid](const auto& s) {
        return s->stage.output == StageOutputKind::kShuffleWrite &&
               s->stage.consumer_shuffle->shuffle().id == sid;
      });
  GS_CHECK_MSG(writer != stage_runs_.end(), "no stage writes shuffle " << sid);
  StageRun& parent = **writer;
  GS_CHECK_MSG(!parent.skipped,
               "lost a shuffle written by a pruned (cache-covered) stage");
  // Resubmit exactly the missing map partitions — unless an earlier fetch
  // failure already did (their tasks are then marked not-done).
  int resubmitted = 0;
  for (int p = 0; p < parent.stage.num_tasks(); ++p) {
    if (cluster_.tracker().MapOutputRegistered(sid, p)) continue;
    TaskRun& mt = *parent.tasks[p];
    if (!mt.done) continue;
    ResubmitCompletedTask(parent, mt);
    ++resubmitted;
  }
  metrics_.map_resubmissions += resubmitted;
  if (parent.done) {
    // The parent already re-completed (recovery raced ahead of this
    // reducer); retry immediately.
    SubmitTask(task);
  } else {
    waiting_on_stage_[parent.stage.id].push_back(&task);
  }
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

void JobRunner::AccountFlow(NodeIndex src, NodeIndex dst, Bytes bytes,
                            FlowKind kind) {
  if (topo_.dc_of(src) == topo_.dc_of(dst)) return;
  switch (kind) {
    case FlowKind::kShuffleFetch:
      metrics_.cross_dc_fetch_bytes += bytes;
      break;
    case FlowKind::kShufflePush:
      metrics_.cross_dc_push_bytes += bytes;
      break;
    case FlowKind::kCodedMulticast:
      // Accounted per leg (one call per receiving datacenter), mirroring
      // the TrafficMeter's per-leg charge.
      metrics_.coded_multicast_bytes += bytes;
      break;
    case FlowKind::kCollect:     // driver traffic: not in Fig. 8's metric
    case FlowKind::kCentralize:  // accounted by GeoCluster::CentralizeInputs
    case FlowKind::kStorePut:
    case FlowKind::kStoreGet:
    case FlowKind::kFabric:
      // Transport-internal kinds never reach per-job accounting: the
      // runner accounts the logical fetch/push before handing the leg to
      // the transport (so these metrics mean the same under every
      // backend).
      return;
    case FlowKind::kOther:
      break;
  }
  metrics_.cross_dc_bytes += bytes;
}

void JobRunner::ShipShard(NodeIndex src, NodeIndex dst, Bytes bytes,
                          FlowKind kind, std::function<void()> on_landed) {
  AccountFlow(src, dst, bytes, kind);
  ShardTransfer transfer;
  transfer.src = src;
  transfer.dst = dst;
  transfer.bytes = bytes;
  transfer.kind = kind;
  transfer.on_landed = std::move(on_landed);
  cluster_.transport().Transfer(std::move(transfer));
}

double JobRunner::StragglerFactor() {
  const CostModel& cost = config_.cost;
  // sigma * N(0, 1) rather than N(0, sigma): the same value bit for bit
  // (libstdc++ scales a unit draw), and sigma = 0 is a valid setting.
  double factor = std::exp(cost.straggler_sigma * rng_.Normal(0.0, 1.0));
  if (cost.straggler_prob > 0 && rng_.Bernoulli(cost.straggler_prob)) {
    factor *= cost.straggler_factor;
  }
  return factor;
}

TaskId JobRunner::SchedulerTaskId(const TaskRun& task) const {
  return (static_cast<TaskId>(job_id_) << 40) |
         (static_cast<TaskId>(task.stage) << 20) | task.partition;
}

bool JobRunner::IsReducerStage(const StageRun& sr) const {
  for (const Rdd* leaf : CollectLeaves(*sr.stage.output_rdd)) {
    if (leaf->kind() == RddKind::kShuffled) return true;
  }
  return false;
}

}  // namespace gs
