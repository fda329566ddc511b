#include "engine/coded_exchange.h"

#include <algorithm>
#include <memory>

#include "common/check.h"
#include "common/log.h"
#include "engine/job_runner.h"

namespace gs {

CodedExchange::CodedExchange(JobRunner& job)
    : job_(job), cluster_(job.cluster_) {}

CodedRing CodedExchange::coded_ring() const {
  return {job_.config_.coded.redundancy_r, job_.topo_.num_datacenters()};
}

NodeIndex CodedExchange::NodeInDc(DcIndex dc, int salt) const {
  const std::vector<NodeIndex> workers =
      cluster_.WorkersIn(dc, /*live_only=*/false);
  if (workers.empty()) return kNoNode;
  const int count = static_cast<int>(workers.size());
  for (int i = 0; i < count; ++i) {
    const NodeIndex cand = workers[(salt + i) % count];
    if (cluster_.scheduler().node_up(cand)) return cand;
  }
  return workers[salt % count];
}

void CodedExchange::PutReplicaOutputs(
    ShuffleId sid, int map_partition, NodeIndex primary,
    const std::vector<RecordsPtr>& shard_records,
    const std::vector<Bytes>& shard_bytes) {
  if (!job_.config_.coded.enabled) return;
  const CodedRing ring = coded_ring();
  for (int j = 1; j < ring.r; ++j) {
    const DcIndex dc = ring.Replica(job_.topo_.dc_of(primary), j);
    const NodeIndex mirror = NodeInDc(dc, map_partition);
    if (mirror == kNoNode || !cluster_.scheduler().node_up(mirror)) continue;
    for (int k = 0; k < static_cast<int>(shard_records.size()); ++k) {
      cluster_.blocks().PutWithSize(mirror,
                                    BlockId::Shuffle(sid, map_partition, k),
                                    shard_records[k], shard_bytes[k]);
    }
  }
}

bool CodedExchange::Start(const StageRun& sr) {
  if (!job_.config_.coded.enabled ||
      sr.stage.output != StageOutputKind::kShuffleWrite) {
    return false;
  }
  const StageId id = sr.stage.id;
  auto [pending, fresh] = pending_.try_emplace(id, 0);
  if (!fresh && pending->second == 0) return false;  // already exchanged
  pending->second = 1;  // guard, released once every transfer is launched

  JobMetrics& metrics = job_.metrics_;
  const ShuffleId sid = sr.stage.consumer_shuffle->shuffle().id;
  MapOutputTracker& tracker = cluster_.tracker();
  const int num_maps = tracker.num_map_partitions(sid);
  const int num_shards = tracker.num_shards(sid);
  const CodedRing ring = coded_ring();

  std::vector<DcIndex> primary_dc(num_maps, kNoDc);
  std::vector<std::vector<Bytes>> bytes(num_maps,
                                        std::vector<Bytes>(num_shards, 0));
  for (int m = 0; m < num_maps; ++m) {
    const NodeIndex p = tracker.primary_node(sid, m);
    if (p != kNoNode) primary_dc[m] = job_.topo_.dc_of(p);
    for (int k = 0; k < num_shards; ++k) {
      bytes[m][k] = tracker.Output(sid, m, k).bytes;
    }
  }
  const std::vector<DcIndex> home_of =
      AssignCodedHomes(ring, primary_dc, bytes);

  std::vector<std::vector<NodeIndex>>& prefs = prefs_[sid];
  prefs.assign(num_shards, {});
  std::vector<NodeIndex> landing(num_shards, kNoNode);
  std::vector<CodedSegment> wan;  // segments with no replica in their home
  for (int k = 0; k < num_shards; ++k) {
    const DcIndex home = home_of[k];
    landing[k] = NodeInDc(home, k);
    if (landing[k] == kNoNode) continue;  // workerless datacenter

    // Reduce-side preference: the landing node first, then the other
    // workers of the home datacenter. SubmitTask pins coded reducers to
    // the preferred nodes' datacenters (kDcOnly), so every listed node
    // must keep the consolidated shard read off the WAN — a busy landing
    // node spills to a neighbour in the same datacenter, never to a
    // remote one that would re-fetch the whole shard cross-DC.
    prefs[k].push_back(landing[k]);
    for (NodeIndex n : cluster_.WorkersIn(home, /*live_only=*/false)) {
      if (n != landing[k]) prefs[k].push_back(n);
    }

    for (int m = 0; m < num_maps; ++m) {
      const MapOutputLocation& out = tracker.Output(sid, m, k);
      if (out.node == kNoNode || primary_dc[m] == kNoDc) continue;
      if (out.bytes == 0) {
        // Nothing to move; land the (empty) block so gathers find it.
        DeliverSegment(sid, m, k, out.node, landing[k]);
        continue;
      }
      if (ring.Holds(primary_dc[m], home)) {
        // A replica already sits in the home datacenter: consolidate onto
        // the landing node with an intra-DC copy (NIC time, no WAN).
        const NodeIndex holder =
            home == primary_dc[m] ? out.node : NodeInDc(home, m);
        if (holder != kNoNode &&
            cluster_.blocks().Has(holder, BlockId::Shuffle(sid, m, k))) {
          metrics.coded_local_bytes += out.bytes;
          if (holder == landing[k]) {
            DeliverSegment(sid, m, k, holder, landing[k]);
          } else {
            cluster_.network().StartFlow(
                holder, landing[k], out.bytes, FlowKind::kOther,
                Landing(id, sid, m, k, holder, landing[k], 1));
          }
          continue;
        }
        // The in-home replica vanished (mirror died): fall through to WAN.
      }
      wan.push_back({m, k, primary_dc[m], home, out.bytes});
    }
  }

  int multicasts = 0;
  for (const CodedGroup& group : GroupCodedSegments(ring, wan)) {
    if (group.members.size() == 1) {
      // Ungroupable: plain unicast of the whole segment from its primary.
      const CodedSegment& seg = wan[group.members[0]];
      const NodeIndex primary = tracker.primary_node(sid, seg.m);
      const NodeIndex dst = landing[seg.k];
      metrics.coded_residual_bytes += seg.bytes;
      job_.AccountFlow(primary, dst, seg.bytes, FlowKind::kShuffleFetch);
      cluster_.network().StartFlow(
          primary, dst, seg.bytes, FlowKind::kShuffleFetch,
          Landing(id, sid, seg.m, seg.k, primary, dst, 1));
      continue;
    }

    // The coder is the first member's holder in the serving datacenter
    // (intra-DC assembly of the other members' segments is not charged —
    // see docs/CODED.md). A member lands once both its coded packet (the
    // multicast completing) and its uncoded tail arrived.
    const CodedSegment& first = wan[group.members[0]];
    const NodeIndex coder = group.serve == first.primary
                                ? tracker.primary_node(sid, first.m)
                                : NodeInDc(group.serve, first.m);
    ++multicasts;
    ++metrics.coded_groups;
    std::vector<NodeIndex> dsts;
    std::vector<std::function<void()>> lands;
    for (int g : group.members) {
      const CodedSegment& seg = wan[g];
      dsts.push_back(landing[seg.k]);
      job_.AccountFlow(coder, landing[seg.k], group.packet,
                       FlowKind::kCodedMulticast);
      lands.push_back(Landing(id, sid, seg.m, seg.k,
                              tracker.primary_node(sid, seg.m),
                              landing[seg.k],
                              seg.bytes > group.packet ? 2 : 1));
    }
    cluster_.network().StartMulticastFlow(
        coder, dsts, group.packet, FlowKind::kCodedMulticast, [lands] {
          for (const std::function<void()>& land : lands) land();
        });
    for (std::size_t x = 0; x < group.members.size(); ++x) {
      const CodedSegment& seg = wan[group.members[x]];
      const Bytes tail = seg.bytes - group.packet;
      if (tail <= 0) continue;
      const NodeIndex primary = tracker.primary_node(sid, seg.m);
      metrics.coded_residual_bytes += tail;
      job_.AccountFlow(primary, landing[seg.k], tail, FlowKind::kShuffleFetch);
      cluster_.network().StartFlow(primary, landing[seg.k], tail,
                                   FlowKind::kShuffleFetch, lands[x]);
    }
  }

  GS_LOG_INFO << "coded exchange: stage " << id << " shuffle " << sid << ": "
              << multicasts << " multicast group(s), " << pending->second - 1
              << " transfer(s) in flight";
  TransferDone(id);  // release the guard
  return true;
}

std::function<void()> CodedExchange::Landing(StageId id, ShuffleId sid,
                                             int m, int k, NodeIndex holder,
                                             NodeIndex dst, int parts) {
  ++pending_[id];
  auto left = std::make_shared<int>(parts);
  return [this, id, sid, m, k, holder, dst, left] {
    if (--*left > 0) return;
    DeliverSegment(sid, m, k, holder, dst);
    TransferDone(id);
  };
}

void CodedExchange::DeliverSegment(ShuffleId sid, int m, int k,
                                   NodeIndex holder, NodeIndex dst) {
  if (!cluster_.tracker().MapOutputRegistered(sid, m)) {
    return;  // invalidated while the transfer was in flight
  }
  const BlockId bid = BlockId::Shuffle(sid, m, k);
  std::optional<Block> b = cluster_.blocks().Get(holder, bid);
  if (!b) {
    // The source copy vanished mid-flight (crash): leave the tracker
    // alone; a reducer's fetch failure triggers the normal recovery.
    return;
  }
  if (holder != dst) {
    cluster_.blocks().PutWithSize(dst, bid, b->records, b->bytes);
  }
  cluster_.tracker().RelocateShard(sid, m, k, dst);
}

void CodedExchange::TransferDone(StageId id) {
  int& pending = pending_.at(id);
  GS_CHECK(pending > 0);
  if (--pending > 0) return;
  job_.OnStageDone(id);
}

void CodedExchange::AppendAlternates(ShuffleId sid, int shard,
                                     std::vector<NodeIndex>* prefs) const {
  auto it = prefs_.find(sid);
  if (it == prefs_.end() || shard >= static_cast<int>(it->second.size())) {
    return;
  }
  for (NodeIndex n : it->second[shard]) {
    if (std::find(prefs->begin(), prefs->end(), n) == prefs->end()) {
      prefs->push_back(n);
    }
  }
}

}  // namespace gs
