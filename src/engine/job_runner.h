// JobRunner: executes one action (job) on the simulated cluster.
//
// Drives the full lifecycle the paper describes:
//   build stages -> submit ready stages -> schedule tasks (locality-aware)
//   -> gather (disk reads / fetch flows / transfer receives) -> compute
//   (real record transformation + simulated CPU time) -> output (shuffle
//   write / transfer push / result delivery) -> stage completion -> next
//   stages -> job completion.
//
// The runner is a generic task engine; boundary-specific behaviour lives
// in modules it owns and calls directly:
//  * kAggShuffle rewrites the graph (transferTo before every shuffle) —
//    done by GeoCluster before the runner sees it;
//  * kCentralized relocates the job's inputs before stage submission
//    (GeoCluster::CentralizeInputs);
//  * every transferTo boundary pairs each producer task with a receiver
//    task that gets the partition pushed the moment it is ready
//    (engine/push_pairing.h; pipelining, Fig. 1b), while fetch-based
//    shuffles wait for the stage barrier (Fig. 1a);
//  * under CodedConfig::enabled, every shuffle-write stage runs the coded
//    exchange before it completes (engine/coded_exchange.h).
#pragma once

#include <functional>
#include <future>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "dag/stage.h"
#include "engine/cluster.h"
#include "engine/coded_exchange.h"
#include "engine/push_pairing.h"
#include "exec/task_compute.h"

namespace gs {

// One attempt-tracked task of a running job. Receivers of a transfer are
// ordinary tasks; their pairing state lives in PushPairing.
struct TaskRun {
  StageId stage = -1;
  int partition = -1;
  int attempt = 0;
  // Bumped every time this task is restarted or recovered; continuations
  // of an older attempt no-op (OnThisAttempt below).
  int epoch = 0;
  NodeIndex node = kNoNode;
  bool assigned = false;
  bool done = false;
  bool speculative = false;   // backup copy of a straggler
  bool has_backup = false;    // a speculative copy was launched
  SimTime assigned_at = 0;

  // Gather state.
  int pending_gathers = 0;
  std::vector<Record> gathered;
  std::vector<NodeIndex> gather_srcs;  // remote nodes being read from
  Bytes in_bytes = 0;
  bool gather_is_processed = false;  // records came from a cache hit
  const Rdd* cut_rdd = nullptr;
  int cut_partition = -1;
  // Missing map outputs discovered while building this shard's fetch
  // list. The gather still runs for the blocks that exist — by the time
  // a reducer notices a dead server, its concurrent fetches from healthy
  // nodes have already moved (and wasted) their bytes — and the attempt
  // fails once the partial gather lands.
  ShuffleId fetch_failed_sid = -1;
  std::vector<int> fetch_failed_maps;

  // In-flight compute: submitted to the pool when the gather starts,
  // joined at the simulated gather-done event (docs/PERF.md). A restart
  // simply overwrites the future; the orphaned job's result is dropped.
  std::future<TaskComputeResult> compute;
};

struct StageRun {
  Stage stage;
  StageMetrics metrics;
  bool submitted = false;
  bool done = false;
  // Pruned: every downstream consumer is satisfied from cached blocks
  // (Spark's missing-parent-stages check); the stage never runs.
  bool skipped = false;
  // A receiver stage whose every partition is cache-covered runs as a
  // normal stage (gathering from the cache) instead of pairing with its
  // (pruned) producer.
  bool standalone = false;
  int tasks_done = 0;

  // Paired with a transfer producer: each task runs once its push lands.
  bool is_receiver() const { return stage.starts_at_transfer && !standalone; }
  // Pushes each computed partition to a paired receiver task.
  bool is_producer() const {
    return stage.output == StageOutputKind::kTransferProduce &&
           stage.transfer_consumer >= 0;
  }

  std::vector<std::unique_ptr<TaskRun>> tasks;
  // Speculative backup attempts (spark.speculation) and which partitions
  // already have a winning attempt.
  std::vector<std::unique_ptr<TaskRun>> backups;
  std::vector<bool> partition_done;
  std::vector<double> completed_durations;
  bool spec_check_scheduled = false;
};

// Wraps `fn` so it runs on `task` only while the task is still on the
// attempt that scheduled it. Every restart or recovery bumps the epoch,
// which turns each pending continuation of the dead attempt into a no-op:
// this is how a crash "kills" callbacks without tracking them one by one.
template <typename Fn>
auto OnThisAttempt(TaskRun& task, Fn fn) {
  return [t = &task, epoch = task.epoch, fn = std::move(fn)]() mutable {
    if (t->epoch == epoch) fn(*t);
  };
}

class JobRunner {
 public:
  JobRunner(GeoCluster& cluster, RddPtr final_rdd, ActionKind action,
            Rng rng, JobId job_id, int tenant);
  // Blocks until the compute pool is idle: attempts discarded by crash
  // recovery may still be computing jobs that reference this runner's
  // stage structures.
  ~JobRunner();

  // Builds the stage graph and schedules the job's first events; the job
  // then executes as the shared simulator advances, concurrently with any
  // other submitted jobs. On completion the runner notifies GeoCluster
  // (OnRunnerDone), which harvests TakeResult() and destroys the runner.
  void Start();

  bool done() const { return job_done_; }

  // Assembles stage metrics, engine counters and the result records.
  // Requires done(); call exactly once. The trace and report slots are
  // filled in by GeoCluster::FinalizeJob.
  RunResult TakeResult();

  // Fault notification from GeoCluster::CrashNode: the node's executor and
  // blocks are already gone; restart every affected in-flight task and
  // recover receivers whose pushed data was lost (see docs/FAULTS.md).
  void OnNodeCrashed(NodeIndex node);

  // Notification from GeoCluster::SetWanDegradation: a WAN link changed
  // capacity (degradation or restore). With adaptive replanning on
  // (AdaptiveConfig::enabled, no pin), re-runs the placement policy for
  // every in-flight transfer stage and moves not-yet-started receiver
  // shards off newly-inferior datacenters (docs/ADAPTIVE.md). A no-op
  // otherwise.
  void OnWanDegraded(DcIndex src, DcIndex dst);

 private:
  // The boundary modules drive tasks through the lifecycle below.
  friend class PushPairing;
  friend class CodedExchange;

  // --- stage orchestration ---
  // Marks stages whose outputs are fully cache-covered as skipped, so
  // cached datasets are not recomputed (and not re-pushed) by later jobs.
  void PruneCachedStages();
  void SubmitReadyStages();
  void SubmitStage(StageId id);
  void OnStageDone(StageId id);

  // --- task lifecycle ---
  std::vector<NodeIndex> PreferredNodes(const StageRun& sr, int partition);
  void SubmitTask(TaskRun& task);
  void OnAssigned(TaskRun& task, NodeIndex node);
  void StartGather(TaskRun& task);
  void GatherArrived(TaskRun& task);  // one gather op finished
  // Packages the gathered records into a pure compute job; the future
  // lands in task.compute. Jobs accumulate in compute_batch_ and reach the
  // cluster's ThreadPool as one wave (single lock acquisition per worker
  // shard) at FlushComputeBatch — a gather barrier releasing k tasks at
  // the same instant enqueues them all at once.
  void SubmitCompute(TaskRun& task);
  // The stage-level part of a task's compute job; callers fill in `start`.
  // `combine` false drops the stage's pre-output combine.
  TaskComputeSpec ComputeSpec(const StageRun& sr, int partition,
                              bool combine) const;
  // Hands the accumulated wave to the pool. Runs from a zero-delay event
  // scheduled by the first SubmitCompute of the instant, and eagerly from
  // OnGatherDone before joining a future (a same-instant gather can need
  // its result before the flush event fires). Idempotent.
  void FlushComputeBatch();
  void OnGatherDone(TaskRun& task);
  // After `cpu` of simulated compute, stores the attempt's cache fills and
  // hands its output to OnComputeDone.
  void CommitAfter(TaskRun& task, SimTime cpu, TaskComputeResult out);
  void StoreCacheFills(const TaskRun& task,
                       const std::vector<EvalResult::CacheFill>& fills);
  void OnComputeDone(TaskRun& task, TaskComputeResult out);
  // Receiver write phase (slot acquired where the push landed): runs the
  // receiver's chain over its inbox.
  void ExecuteReceiver(TaskRun& receiver);
  void OnTaskFailed(TaskRun& task);
  // Starts a fresh attempt: bumps epoch and attempt, and forgets the old
  // attempt's node and gather state. Callers release its slot first.
  void ResetAttempt(TaskRun& task);
  void FinishTask(TaskRun& task);

  // --- fault recovery ---
  // A reducer found map outputs of `sid` missing while building its fetch
  // list: fail the attempt, invalidate the lost outputs (epoch bump),
  // resubmit exactly the missing partitions of the parent stage, and park
  // the reducer until the parent re-completes (Spark's fetch-failure path).
  void HandleFetchFailure(TaskRun& task, ShuffleId sid,
                          const std::vector<int>& missing);
  // Restarts a running task that failed, or whose node or gather source
  // died.
  void RestartTask(TaskRun& task);
  // Re-runs a finished task (lost output that must be regenerated). Undoes
  // the stage's completion bookkeeping; the stage re-fires OnStageDone when
  // the re-run finishes.
  void ResubmitCompletedTask(StageRun& sr, TaskRun& task);
  // Launches backup copies of stragglers once enough of the stage is done
  // (spark.speculation); only plain map/reduce/result stages speculate.
  void MaybeSpeculate(StageRun& sr);

  // --- helpers ---
  // Per-flow cross-datacenter traffic accounting, called at every
  // StartFlow site this job owns. Equivalent to metering: the TrafficMeter
  // also records at flow start, but its totals span all concurrent jobs,
  // so per-job numbers must be attributed at the call site.
  void AccountFlow(NodeIndex src, NodeIndex dst, Bytes bytes, FlowKind kind);
  // Accounts `bytes` from `src` to `dst` and moves them through the
  // cluster's shuffle transport; `on_landed` runs when they arrive. Every
  // gather flow and every push take this path.
  void ShipShard(NodeIndex src, NodeIndex dst, Bytes bytes, FlowKind kind,
                 std::function<void()> on_landed);
  double StragglerFactor();
  StageRun& stage_run(StageId id) { return *stage_runs_[id]; }
  // The scheduler-side id of a task; unique across concurrent jobs, which
  // share one scheduler queue. Speculative twins share their partition's.
  TaskId SchedulerTaskId(const TaskRun& task) const;
  bool IsReducerStage(const StageRun& sr) const;

  GeoCluster& cluster_;
  Simulator& sim_;
  const Topology& topo_;
  const RunConfig& config_;
  RddPtr final_rdd_;
  ActionKind action_;
  Rng rng_;
  JobId job_id_ = -1;
  int tenant_ = 0;  // scheduler tenant id tasks bill their slots to

  std::vector<std::unique_ptr<StageRun>> stage_runs_;
  StageId result_stage_ = -1;
  bool job_done_ = false;

  PushPairing pairing_;
  CodedExchange coded_;

  // Reduce tasks parked by a fetch failure, keyed by the parent stage they
  // wait on; resubmitted when that stage re-completes.
  std::unordered_map<StageId, std::vector<TaskRun*>> waiting_on_stage_;

  // Compute jobs awaiting the per-instant batched submission (see
  // SubmitCompute / FlushComputeBatch).
  std::vector<std::packaged_task<TaskComputeResult()>> compute_batch_;
  bool compute_flush_scheduled_ = false;

  std::vector<std::vector<Record>> results_;  // per result partition
  JobMetrics metrics_;
};

}  // namespace gs
