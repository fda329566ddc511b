// Coded-shuffle executor (docs/CODED.md).
//
// Runs the plan of engine/coded_plan.h against live cluster state. Under
// CodedConfig::enabled every finished map partition is mirrored into the
// next r-1 datacenters of the replica ring, and a shuffle-write stage
// completes only after its exchange drained: each reduce shard is
// consolidated on a landing node in its home datacenter — segments
// replicated there by an intra-datacenter copy, the rest as XOR multicasts
// and residual unicasts over the WAN. Reducers then read their shard
// locally. JobRunner owns one CodedExchange and calls it at map output,
// at stage completion and when placing reducers.
//
// The exchange's local copies, multicasts and residual unicasts start
// Network flows directly; they do not go through the ShuffleTransport
// (docs/TRANSPORTS.md).
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "engine/coded_plan.h"
#include "storage/block.h"

namespace gs {

class GeoCluster;
class JobRunner;
struct StageRun;

class CodedExchange {
 public:
  explicit CodedExchange(JobRunner& job);

  // Under coding, mirrors a finished map partition's shuffle blocks onto
  // one node in each of the r-1 datacenters after the primary's on the
  // ring (the replicated map executions' outputs; JobRunner charges their
  // compute).
  void PutReplicaOutputs(ShuffleId sid, int map_partition, NodeIndex primary,
                         const std::vector<RecordsPtr>& shard_records,
                         const std::vector<Bytes>& shard_bytes);
  // Stage `sr` finished its last task. Under coding, a shuffle-write
  // stage's exchange starts and this returns true — JobRunner::OnStageDone
  // is called again when the exchange drains. Returns false for every
  // other stage and when the exchange already ran (a re-completion after
  // fetch-failure recovery simply lets the reducers fetch the
  // re-registered outputs from their producer).
  bool Start(const StageRun& sr);
  // Extends a reduce shard's preference list with the exchange's
  // alternates (landing node first, then the home datacenter's workers);
  // a no-op for a shuffle that was not exchanged.
  void AppendAlternates(ShuffleId sid, int shard,
                        std::vector<NodeIndex>* prefs) const;

 private:
  CodedRing coded_ring() const;
  // Deterministic worker pick inside `dc` (salted round-robin, preferring
  // live nodes); kNoNode for a workerless datacenter. Chooses both the
  // mirror node holding map partition m's replica (salt = m) and the
  // landing node consolidating shard k (salt = k).
  NodeIndex NodeInDc(DcIndex dc, int salt) const;
  // Registers one pending transfer of stage `id` and returns its
  // completion: after `parts` calls (a multicast packet plus an uncoded
  // tail make two) it lands segment (m, k) from `holder` onto `dst` and
  // releases the transfer.
  std::function<void()> Landing(StageId id, ShuffleId sid, int m, int k,
                                NodeIndex holder, NodeIndex dst, int parts);
  // Copies segment (m, k) from `holder` onto `dst` and re-points the
  // tracker; a vanished source copy is left for fetch-failure recovery.
  void DeliverSegment(ShuffleId sid, int m, int k, NodeIndex holder,
                      NodeIndex dst);
  // One transfer landed; completes the deferred stage when the last one
  // drains.
  void TransferDone(StageId id);

  JobRunner& job_;
  GeoCluster& cluster_;
  // Transfers in flight per exchanging stage; an entry stays (at 0) once
  // the stage's exchange drained.
  std::unordered_map<StageId, int> pending_;
  // Per-shard reducer preference lists: the landing node first, then the
  // other workers of the shard's home datacenter (fallbacks if the landing
  // node is lost or busy).
  std::unordered_map<ShuffleId, std::vector<std::vector<NodeIndex>>> prefs_;
};

}  // namespace gs
