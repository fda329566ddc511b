// Push pairing of transferTo boundaries (Sec. IV-B to IV-D).
//
// A transfer boundary splits a job into a producer stage and a receiver
// stage with one task per partition on each side. Producer task p pushes
// its computed partition to receiver task p as soon as it is ready
// (pipelining, Fig. 1b); the receiver, an ordinary task, then takes a slot
// where the bytes landed and runs its chain. JobRunner keeps the task
// lifecycle and calls this module at the pairing points:
//   * stage submission: choose the aggregator datacenters (PairStage);
//   * producer assignment: place its receiver (PlaceReceiver);
//   * producer output: buffer the partition and push it (NotifyReceiver);
//   * crashes: drop pushes lost with their source, re-place and re-push
//     receivers whose node died (docs/FAULTS.md);
//   * WAN changes under adaptivity: replan not-yet-started receivers
//     (docs/ADAPTIVE.md).
// Aggregator choices draw from the job's own Rng, the stream its
// straggler draws share.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "engine/placement_policy.h"
#include "storage/block.h"

namespace gs {

class GeoCluster;
class JobRunner;
struct StageRun;
struct TaskRun;

class PushPairing {
 public:
  explicit PushPairing(JobRunner& job);

  // A transfer producer is being submitted: decides where its receiver
  // stage aggregates — the transferTo's pinned datacenter, else the
  // placement policy's top RunConfig::aggregator_dc_count (Eq. 2 under the
  // static policy), known before the producer runs (Sec. IV-D).
  void PairStage(const StageRun& producer);
  // The producer task was assigned a node: picks its receiver's node now,
  // so the push can start the instant the producer finishes. Inside the
  // aggregator subset the receiver co-locates with the producer (a
  // transparent transferTo, Sec. IV-C2); otherwise receivers spread
  // round-robin over the subset's live workers. A producer retry keeps
  // the placement.
  void PlaceReceiver(const StageRun& producer, const TaskRun& producer_task);
  // The producer's output is ready: buffers it as the receiver's inbox and
  // pushes it. `push_bytes` is its compressed size. A restarted producer
  // whose first push already made it out is ignored.
  void NotifyReceiver(const TaskRun& producer_task, std::vector<Record> records,
                      Bytes push_bytes);
  // A pushed partition and its compressed size.
  struct Inbox {
    RecordsPtr records;
    Bytes bytes = 0;
  };
  // What was pushed to `receiver`. Retained after execution, so a lost
  // receiver node is re-pushed instead of recomputing the producer.
  const Inbox& inbox(const TaskRun& receiver) { return state(receiver).inbox; }

  // A producer's push that has not landed dies with the producer's node:
  // resets the paired receiver so the producer's re-run pushes again.
  // Returns false when the stage pushes nothing or no such push exists.
  bool DropUnlandedPush(const StageRun& producer_sr, const TaskRun& producer);
  // The receiver's node died before it finished: re-place it and re-push
  // the retained inbox after an exponential backoff; once kMaxPushRetries
  // are spent, the push degrades to fetch (FallBackToFetch). If the push
  // source died too, the producer is recomputed.
  void RecoverReceiver(TaskRun& receiver);
  // A finished receiver's written blocks were lost and the attempt was
  // reset: re-pushes the retained inbox to a fresh node in the aggregator
  // subset (recovery stays datacenter-local there).
  void RerunReceiver(TaskRun& receiver);
  // Re-runs the placement policy for every in-flight receiver stage, at
  // most once per kMinReplanInterval per stage (an event inside the window
  // schedules one catch-up pass at its end): moves not-yet-started
  // receivers off datacenters the policy now ranks worse
  // (hysteresis-guarded) and degrades single shards push->fetch when their
  // push path's measured bandwidth collapsed.
  void ReplanReceivers();

 private:
  // Pairing state of one receiver task.
  struct Receiver {
    NodeIndex producer_node = kNoNode;
    bool producer_done = false;  // the inbox is filled
    bool started = false;        // push in flight or landed
    bool landed = false;         // pushed bytes arrived on the task's node
    int push_retries = 0;
    bool fallback = false;       // degraded to producer-local placement
    Inbox inbox;
  };
  // Pairing state of one receiver stage, keyed by its stage id.
  struct Pairing {
    // Datacenters the receivers land in (usually one; several when
    // RunConfig::aggregator_dc_count > 1).
    std::vector<DcIndex> aggregator_dcs;
    int rr_next = 0;  // round-robin cursor for receiver placement
    // Last replanning pass (-1 = never) and whether a catch-up pass is
    // scheduled (ReplanReceivers).
    SimTime last_replan = -1;
    bool replan_pending = false;
    std::vector<Receiver> receivers;  // by partition
  };

  Receiver& state(const TaskRun& receiver);
  TaskRun& ReceiverOf(const StageRun& producer, int partition);
  // Whether `node` lies in one of the pairing's aggregator datacenters.
  bool InAggregatorDcs(const Pairing& pair, NodeIndex node) const;
  // Round-robin pick over the live workers of the aggregator subset, or of
  // every datacenter when the subset is down; skips `exclude`.
  NodeIndex PickReceiverNode(Pairing& pair, NodeIndex exclude);
  // Starts the push once the receiver is placed and the inbox is filled
  // (a co-located receiver gets a local hand-off); on landing the receiver
  // requests its write slot.
  void TryDeliver(TaskRun& receiver);
  // Places the receiver on its producer's own node: a co-located no-op
  // write after which downstream reducers fetch the partition (push ->
  // fetch). `trigger` names the cause in the log.
  void FallBackToFetch(TaskRun& receiver, const char* trigger);
  // The push source died too, so the pushed output is gone: drops the
  // inbox and recomputes the producer, whose push then goes to
  // receiver.node.
  void RecomputeProducer(TaskRun& receiver);
  // One receiver stage's replanning pass.
  void ReplanStage(StageId consumer_id);

  // Shuffle-input bytes per datacenter for the stage's pending transfer
  // (cached cuts credited to the nearest live replica).
  std::vector<Bytes> StageInputPerDc(const StageRun& producer);
  // The policy's ranking cut to the aggregator_dc_count best datacenters.
  std::vector<DcIndex> TopDcs(const std::vector<Bytes>& per_dc);

  JobRunner& job_;
  GeoCluster& cluster_;
  std::unique_ptr<AggregatorPlacementPolicy> policy_;
  // What the policy may consult; its Rng is the job's own.
  const AggregatorPlacementPolicy::Context ctx_;
  std::map<StageId, Pairing> pairs_;  // ordered: replanning runs by stage id
};

}  // namespace gs
