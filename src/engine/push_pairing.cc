#include "engine/push_pairing.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "dag/dag_scheduler.h"
#include "engine/job_runner.h"

namespace gs {
namespace {

// Hand-off latency for a transfer whose producer and receiver share a node.
constexpr SimTime kLocalHandoff = Millis(1);

// Transfer-push recovery: when a receiver's node dies, the push is retried
// against a fresh node in the aggregator datacenter after an exponential
// backoff (base * factor^(attempt-1)). Once the retries are exhausted the
// transfer degrades to the producer's own node — a co-located no-op — and
// downstream reducers fall back to fetching that partition over the WAN
// (push -> fetch fallback).
constexpr int kMaxPushRetries = 4;
constexpr SimTime kPushRetryBackoff = Seconds(1);
constexpr double kPushBackoffFactor = 2.0;

// Adaptive replanning (docs/ADAPTIVE.md). A push path counts as collapsed,
// and its shard falls back to fetch, below this fraction of the link's
// base rate.
constexpr double kDegradeThreshold = 0.1;
// A stage retargets only when the new best datacenter's estimated
// aggregation time beats the incumbent's by this factor: an estimate
// barely better is noise, and moving on it would thrash on every jitter
// wobble.
constexpr double kReplanHysteresis = 1.5;
// Minimum spacing between replanning passes of one stage.
constexpr SimTime kMinReplanInterval = Seconds(1);

}  // namespace

PushPairing::PushPairing(JobRunner& job)
    : job_(job),
      cluster_(job.cluster_),
      policy_(MakeAggregatorPolicy(job.config_)),
      ctx_{&job.topo_, &job.cluster_.network(), &job.config_, &job.rng_} {}

PushPairing::Receiver& PushPairing::state(const TaskRun& receiver) {
  return pairs_.at(receiver.stage).receivers[receiver.partition];
}

TaskRun& PushPairing::ReceiverOf(const StageRun& producer, int partition) {
  return *job_.stage_run(producer.stage.transfer_consumer).tasks[partition];
}

bool PushPairing::InAggregatorDcs(const Pairing& pair, NodeIndex node) const {
  const auto& dcs = pair.aggregator_dcs;
  return node != kNoNode &&
         std::find(dcs.begin(), dcs.end(), job_.topo_.dc_of(node)) !=
             dcs.end();
}

// ---------------------------------------------------------------------------
// Pairing and delivery
// ---------------------------------------------------------------------------

void PushPairing::PairStage(const StageRun& producer) {
  const Stage& stage = producer.stage;
  Pairing& pair = pairs_[stage.transfer_consumer];
  // Note: the pairing is keyed by the *receiver* stage; a stage that both
  // receives one transfer and produces the next (explicit transferTo ->
  // map -> automatic transferTo) keeps its own receiver datacenters and
  // assigns the new target to its consumer.
  if (stage.consumer_transfer->target_dc() != kNoDc) {
    pair.aggregator_dcs = {stage.consumer_transfer->target_dc()};
  } else {
    pair.aggregator_dcs = TopDcs(StageInputPerDc(producer));
  }
  pair.receivers.resize(
      job_.stage_run(stage.transfer_consumer).stage.num_tasks());
  std::string names;
  for (DcIndex dc : pair.aggregator_dcs) {
    names += (names.empty() ? "" : ", ") + job_.topo_.datacenter(dc).name;
  }
  GS_LOG_INFO << "transferTo aggregator(s) for stage " << stage.id << ": "
              << names;
}

void PushPairing::PlaceReceiver(const StageRun& producer,
                                const TaskRun& producer_task) {
  TaskRun& receiver = ReceiverOf(producer, producer_task.partition);
  if (receiver.node != kNoNode) return;  // producer retry: keep placement
  Pairing& pair = pairs_.at(receiver.stage);
  pair.receivers[receiver.partition].producer_node = producer_task.node;
  if (InAggregatorDcs(pair, producer_task.node)) {
    // Already in an aggregator datacenter: the transferTo task is
    // transparent (Sec. IV-C2) — no data moves.
    receiver.node = producer_task.node;
    return;
  }
  // Mimic the Task Scheduler's host-level pick within the aggregator
  // subset: spread receivers round-robin over datacenters, then workers.
  // Only live workers qualify — a receiver pinned to a crashed executor
  // accepts the push and then waits forever for a slot (its write phase is
  // kNodeOnly, which never spills). If the chosen datacenter has no live
  // worker, fall back to recovery's pick over the whole subset.
  const std::vector<DcIndex>& targets = pair.aggregator_dcs;
  const int cursor = pair.rr_next++;
  const DcIndex dc = targets[cursor % targets.size()];
  const std::vector<NodeIndex> workers =
      cluster_.WorkersIn(dc, /*live_only=*/true);
  if (workers.empty()) {
    receiver.node = PickReceiverNode(pair, kNoNode);
    return;
  }
  receiver.node = workers[(cursor / targets.size()) % workers.size()];
}

void PushPairing::NotifyReceiver(const TaskRun& producer_task,
                                 std::vector<Record> records,
                                 Bytes push_bytes) {
  TaskRun& receiver =
      ReceiverOf(job_.stage_run(producer_task.stage), producer_task.partition);
  Receiver& rs = state(receiver);
  // A restarted producer re-notifies; if the first attempt's push already
  // made it out (data landed, or still flowing from a live node), keep it.
  if (rs.producer_done) return;
  // Pushed data is serialized and compressed like any shuffle stream.
  rs.inbox = {MakeRecords(std::move(records)), push_bytes};
  rs.producer_done = true;
  rs.producer_node = producer_task.node;
  TryDeliver(receiver);
}

void PushPairing::TryDeliver(TaskRun& receiver) {
  Receiver& rs = state(receiver);
  if (receiver.node == kNoNode || !rs.producer_done || rs.started) return;
  rs.started = true;
  // Landed: acquire a slot on the receiver's node for the receive/write
  // work (receivers consume aggregator-datacenter compute, Sec. IV-E).
  auto landed = OnThisAttempt(receiver, [this](TaskRun& r) {
    state(r).landed = true;
    job_.SubmitTask(r);
  });
  if (rs.producer_node == receiver.node) {
    // Co-located: the transferTo task is transparent (Sec. IV-C2).
    job_.sim_.Schedule(kLocalHandoff, std::move(landed));
  } else {
    job_.ShipShard(rs.producer_node, receiver.node, rs.inbox.bytes,
                   FlowKind::kShufflePush, std::move(landed));
  }
}

// ---------------------------------------------------------------------------
// Recovery (docs/FAULTS.md)
// ---------------------------------------------------------------------------

bool PushPairing::DropUnlandedPush(const StageRun& producer_sr,
                                   const TaskRun& producer) {
  if (!producer_sr.is_producer()) return false;
  TaskRun& recv = ReceiverOf(producer_sr, producer.partition);
  Receiver& rs = state(recv);
  if (recv.done || !rs.producer_done || rs.landed ||
      rs.producer_node != producer.node) {
    return false;
  }
  ++recv.epoch;
  rs.producer_done = rs.started = false;
  rs.inbox = {};
  return true;
}

void PushPairing::RecoverReceiver(TaskRun& receiver) {
  Pairing& pair = pairs_.at(receiver.stage);
  Receiver& rs = pair.receivers[receiver.partition];
  ++receiver.epoch;
  if (receiver.assigned) {
    // The receiver held a write-phase slot on the crashed node; balance
    // the tenant's busy accounting (the slot itself died with the node).
    cluster_.scheduler().ReleaseSlot(receiver.node, job_.tenant_);
    receiver.assigned = false;
  } else if (rs.landed) {
    // The write-phase request is still queued, pinned kNodeOnly to the
    // crashed node — it would sit in the scheduler's queue until that
    // node restarts. The epoch bump above already orphaned it; lift the
    // pin so the next free slot anywhere drains the entry (the stale
    // grant is released on delivery).
    cluster_.scheduler().UpdatePreferences(job_.SchedulerTaskId(receiver), {},
                                           PlacementPolicy::kAnyAfterWait);
  }
  rs.started = rs.landed = false;
  if (!rs.producer_done) {
    // Nothing pushed yet: just re-place; the producer's push will follow
    // the new destination.
    receiver.node = PickReceiverNode(pair, receiver.node);
    return;
  }
  if (!cluster_.scheduler().node_up(rs.producer_node)) {
    // Double fault: the push source died too.
    receiver.node = PickReceiverNode(pair, kNoNode);
    RecomputeProducer(receiver);
    return;
  }
  if (rs.push_retries >= kMaxPushRetries) {
    ++job_.metrics_.push_fallbacks;
    FallBackToFetch(receiver, "push");
    return;
  }
  ++rs.push_retries;
  ++job_.metrics_.push_retries;
  receiver.node = PickReceiverNode(pair, kNoNode);
  const SimTime backoff =
      kPushRetryBackoff * std::pow(kPushBackoffFactor, rs.push_retries - 1);
  GS_LOG_INFO << "push retry " << rs.push_retries << " for stage "
              << receiver.stage << "/" << receiver.partition << " to "
              << job_.topo_.node(receiver.node).name << " after " << backoff
              << "s";
  job_.sim_.Schedule(
      backoff, OnThisAttempt(receiver, [this](TaskRun& r) { TryDeliver(r); }));
}

void PushPairing::RerunReceiver(TaskRun& receiver) {
  Receiver& rs = state(receiver);
  GS_CHECK(rs.producer_done && rs.inbox.records != nullptr);
  rs.started = rs.landed = false;
  receiver.node = PickReceiverNode(pairs_.at(receiver.stage), kNoNode);
  if (!cluster_.scheduler().node_up(rs.producer_node)) {
    RecomputeProducer(receiver);  // the push source died too
  } else {
    TryDeliver(receiver);
  }
}

void PushPairing::FallBackToFetch(TaskRun& receiver, const char* trigger) {
  Receiver& rs = state(receiver);
  rs.fallback = true;
  GS_LOG_INFO << trigger << " fallback: stage " << receiver.stage << "/"
              << receiver.partition << " degrades to fetch from "
              << job_.topo_.node(rs.producer_node).name;
  if (receiver.node == rs.producer_node) return;
  receiver.node = rs.producer_node;
  TryDeliver(receiver);
}

void PushPairing::RecomputeProducer(TaskRun& receiver) {
  Receiver& rs = state(receiver);
  rs.producer_done = false;
  rs.inbox = {};
  StageRun& producer_sr =
      job_.stage_run(job_.stage_run(receiver.stage).stage.transfer_producer);
  TaskRun& pt = *producer_sr.tasks[receiver.partition];
  if (pt.done) {
    job_.ResubmitCompletedTask(producer_sr, pt);
  } else if (pt.assigned) {
    job_.RestartTask(pt);
  }
}

NodeIndex PushPairing::PickReceiverNode(Pairing& pair, NodeIndex exclude) {
  GS_CHECK(!pair.aggregator_dcs.empty());
  std::vector<NodeIndex> candidates;
  auto add_live = [&](DcIndex dc) {
    for (NodeIndex n : cluster_.WorkersIn(dc, /*live_only=*/true)) {
      if (n != exclude) candidates.push_back(n);
    }
  };
  for (DcIndex dc : pair.aggregator_dcs) add_live(dc);
  if (candidates.empty()) {
    // Aggregator subset fully down: spill to any live worker.
    for (DcIndex dc = 0; dc < job_.topo_.num_datacenters(); ++dc) {
      add_live(dc);
    }
  }
  GS_CHECK_MSG(!candidates.empty(), "no live worker to host a receiver");
  return candidates[pair.rr_next++ % candidates.size()];
}

// ---------------------------------------------------------------------------
// Adaptive replanning (docs/ADAPTIVE.md)
// ---------------------------------------------------------------------------

void PushPairing::ReplanReceivers() {
  for (auto& [id, pair] : pairs_) {
    const StageRun& consumer = job_.stage_run(id);
    if (consumer.done || consumer.skipped) continue;
    // Rate limit: at most one pass per kMinReplanInterval of *strictly
    // later* time. Several degradation events landing at the same instant
    // (a fault plan collapsing a whole ingress at once) each re-run the
    // pass, so the last one sees every link already degraded. An event
    // inside the window schedules one catch-up pass at its end instead of
    // being dropped — the documented "absorbed by the next pass".
    const SimTime elapsed =
        pair.last_replan < 0 ? -1 : job_.sim_.Now() - pair.last_replan;
    if (elapsed > 0 && elapsed < kMinReplanInterval) {
      if (!pair.replan_pending) {
        pair.replan_pending = true;
        job_.sim_.ScheduleAt(pair.last_replan + kMinReplanInterval,
                             [this, id = id] {
                               pairs_.at(id).replan_pending = false;
                               const StageRun& sr = job_.stage_run(id);
                               if (job_.done() || sr.done || sr.skipped) return;
                               ReplanStage(id);
                             });
      }
      continue;
    }
    ReplanStage(id);
  }
}

void PushPairing::ReplanStage(StageId consumer_id) {
  StageRun& consumer = job_.stage_run(consumer_id);
  Pairing& pair = pairs_.at(consumer_id);
  pair.last_replan = job_.sim_.Now();
  const StageRun& producer = job_.stage_run(consumer.stage.transfer_producer);
  if (producer.stage.consumer_transfer->target_dc() != kNoDc) {
    return;  // the application pinned this transfer's destination
  }
  const Topology& topo = job_.topo_;
  const std::vector<Bytes> per_dc = StageInputPerDc(producer);
  std::vector<DcIndex> ranking = TopDcs(per_dc);

  // Hysteresis on the primary choice (kReplanHysteresis). The static
  // policy scores every datacenter 0, so it can never trigger a move.
  bool retargeted = false;
  if (ranking != pair.aggregator_dcs) {
    const double cur =
        policy_->Score(ctx_, per_dc, pair.aggregator_dcs.front());
    const double alt = policy_->Score(ctx_, per_dc, ranking.front());
    if (alt * kReplanHysteresis < cur) {
      GS_LOG_INFO << "replan: stage " << consumer_id << " aggregator "
                  << topo.datacenter(pair.aggregator_dcs.front()).name
                  << " -> " << topo.datacenter(ranking.front()).name
                  << " (est. " << cur << "s -> " << alt << "s)";
      pair.aggregator_dcs = std::move(ranking);
      retargeted = true;
    }
  }

  // Per-shard pass over receivers whose push has not started (placed but
  // nothing in flight; the producer's eventual push follows receiver.node
  // read at delivery time, so moving them costs nothing). Shards already
  // pushing or landed keep their placement — their WAN cost is paid.
  int moved = 0;
  int fallbacks = 0;
  for (auto& tp : consumer.tasks) {
    TaskRun& r = *tp;
    const Receiver& rs = pair.receivers[r.partition];
    if (r.done || rs.fallback || rs.started || r.node == kNoNode) continue;
    NodeIndex target = r.node;
    if (retargeted && !InAggregatorDcs(pair, r.node)) {
      // The shard sits in a dropped datacenter: place it as PlaceReceiver
      // would over the new subset's live workers.
      target = InAggregatorDcs(pair, rs.producer_node)
                   ? rs.producer_node
                   : PickReceiverNode(pair, r.node);
    }

    // Per-shard push->fetch fallback: when the push path into the chosen
    // datacenter has measurably collapsed — effective bandwidth below
    // kDegradeThreshold of the link's base rate — the mid-job analogue of
    // RecoverReceiver's terminal fallback, triggered by measurement
    // instead of exhausted retries.
    const int link =
        rs.producer_node == kNoNode
            ? -1
            : topo.wan_link_index(topo.dc_of(rs.producer_node),
                                  topo.dc_of(target));
    if (link >= 0) {
      const WanLinkSpec& spec = topo.wan_link(link);
      if (cluster_.network().EstimateWanBandwidth(spec.src, spec.dst,
                                                  kBandwidthWindow) <
          kDegradeThreshold * spec.base_rate) {
        ++fallbacks;
        FallBackToFetch(r, "adaptive");
        continue;
      }
    }

    if (target == r.node) continue;
    r.node = target;
    ++moved;
    // If the producer already finished (the shard was in a push-retry
    // backoff), deliver to the new node right away — the pending backoff
    // event no-ops on `started`. Otherwise the producer's push will read
    // the new node when it fires.
    TryDeliver(r);
  }
  job_.metrics_.receivers_moved += moved;
  job_.metrics_.adaptive_fallbacks += fallbacks;
  if (retargeted || moved > 0 || fallbacks > 0) ++job_.metrics_.replans;
}

// ---------------------------------------------------------------------------
// Aggregator choice (Sec. IV-D, Eq. 2; docs/ADAPTIVE.md)
// ---------------------------------------------------------------------------

std::vector<Bytes> PushPairing::StageInputPerDc(const StageRun& producer) {
  const Topology& topo = job_.topo_;
  std::vector<Bytes> per_dc(topo.num_datacenters(), 0);
  for (int p = 0; p < producer.stage.num_tasks(); ++p) {
    EvalCut cut =
        FindEvalCut(*producer.stage.output_rdd, p, cluster_.blocks());
    if (cut.is_cached_cut) {
      // Credit the nearest *live* replica — the node the stage's task will
      // actually read from. The first registered location may sit on a
      // down executor, and weighting its datacenter pulls the aggregator
      // toward a node that cannot even serve the block.
      const BlockId bid = BlockId::Cached(cut.rdd->id(), cut.partition);
      std::optional<Block> b;
      for (NodeIndex n : cluster_.blocks().Locations(bid)) {
        if (cluster_.scheduler().node_up(n)) {
          b = cluster_.blocks().Get(n, bid);
          if (b) per_dc[topo.dc_of(n)] += b->bytes;
          break;
        }
      }
      if (!b) {
        // Every replica is dead, or the live one was evicted.
        GS_LOG_INFO << "aggregator choice: cached rdd" << cut.rdd->id()
                    << "/" << cut.partition
                    << " has no live replica; counting 0 bytes";
        ++job_.metrics_.placement_misses;
        if (MetricsRegistry* reg = cluster_.metrics_registry()) {
          // Registered lazily at the first miss so healthy runs' metric
          // snapshots stay byte-identical to the seed goldens.
          reg->counter("engine.placement_misses").Add(1);
        }
      }
      continue;
    }
    switch (cut.rdd->kind()) {
      case RddKind::kSource: {
        const auto& src = static_cast<const SourceRdd&>(*cut.rdd);
        NodeIndex loc = cluster_.SourceLocation(src, cut.partition);
        per_dc[topo.dc_of(loc)] += src.partition(cut.partition).bytes;
        break;
      }
      case RddKind::kShuffled: {
        const auto& s = static_cast<const ShuffledRdd&>(*cut.rdd);
        const ShuffleId sid = s.shuffle().id;
        const int num_maps = cluster_.tracker().num_map_partitions(sid);
        for (int m = 0; m < num_maps; ++m) {
          const MapOutputLocation& out =
              cluster_.tracker().Output(sid, m, cut.partition);
          if (out.node != kNoNode) {
            per_dc[topo.dc_of(out.node)] += out.bytes;
          }
        }
        break;
      }
      case RddKind::kTransferred: {
        // This stage's input arrives through its own receiver tasks; it
        // lives in the stage's (already decided) aggregator subset.
        // Weight by partition count — all partitions land there.
        for (DcIndex dc : pairs_.at(producer.stage.id).aggregator_dcs) {
          per_dc[dc] += 1;
        }
        break;
      }
      default:
        GS_CHECK_MSG(false, "unexpected boundary while choosing aggregator");
    }
  }
  return per_dc;
}

std::vector<DcIndex> PushPairing::TopDcs(const std::vector<Bytes>& per_dc) {
  const int num_dcs = job_.topo_.num_datacenters();
  std::vector<DcIndex> ranking = policy_->Rank(ctx_, per_dc);
  GS_CHECK(static_cast<int>(ranking.size()) == num_dcs);
  ranking.resize(std::clamp(job_.config_.aggregator_dc_count, 1, num_dcs));
  return ranking;
}

}  // namespace gs
