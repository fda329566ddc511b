// Locality-aware task scheduling over executor slots.
//
// Models Spark's standalone-mode behaviour the paper relies on (Sec. IV-B):
// the scheduler is the only component that picks hosts; tasks express
// host-level preferences through preferredLocations and the scheduler
// satisfies them greedily, falling back from preferred node, to a node in a
// preferred node's datacenter, and — only after a locality wait, as in
// Spark's delay scheduling — to the least-loaded worker anywhere. The
// Push/Aggregate mechanism steers placement purely by feeding receiver
// tasks whose preferences name the aggregator datacenter's workers — no
// scheduler change is needed, which is the paper's central design point.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <vector>

#include "common/ids.h"
#include "common/metrics_registry.h"
#include "common/units.h"
#include "netsim/topology.h"
#include "simcore/simulator.h"

namespace gs {

// How well a task's placement matched its preferences (for metrics/tests).
enum class LocalityLevel { kNodeLocal, kDcLocal, kAny, kNoPreference };

// How far from its preferences a task may be placed.
enum class PlacementPolicy {
  kAnyAfterWait,  // node -> datacenter -> (after locality wait) anywhere
  // node -> datacenter of a preferred node. Never beyond — except when
  // every worker in every preferred datacenter is down: then, after the
  // locality wait (which gives a restarting executor its chance), the task
  // may run anywhere rather than hang forever on a dead datacenter.
  kDcOnly,
  kNodeOnly,      // exactly a preferred node (e.g. data already landed there)
};

struct TaskRequest {
  TaskId id = -1;
  // Tenant this task bills its slot to (weighted fair sharing). The
  // default tenant 0 always exists with weight 1.
  int tenant = 0;
  // Preferred worker nodes, best first. Empty = no preference.
  std::vector<NodeIndex> preferred;
  PlacementPolicy policy = PlacementPolicy::kAnyAfterWait;
  // Invoked (via the simulator, at the current time) when a slot is
  // assigned.
  std::function<void(NodeIndex node, LocalityLevel locality)> on_assigned;
};

struct TaskSchedulerConfig {
  // How long a task with placement preferences waits for a slot in a
  // preferred datacenter before accepting any worker (Spark's
  // spark.locality.wait).
  SimTime locality_wait = Seconds(6);
};

class TaskScheduler {
 public:
  // `metrics` (optional) receives submission/assignment counters, the
  // queue-depth gauge and the queue-wait histogram; must outlive the
  // scheduler.
  TaskScheduler(Simulator& sim, const Topology& topo,
                TaskSchedulerConfig config = {},
                MetricsRegistry* metrics = nullptr);

  // Enqueues a task; it will be assigned a slot as soon as one is free.
  // Slots are offered to the queued tenant with the smallest weighted
  // busy-slot share (busy/weight; ties to the lower tenant id), first-fit
  // in submission order within the tenant. With one tenant this is plain
  // FIFO first-fit.
  void Submit(TaskRequest request);

  // Rewrites the preference list (and placement policy) of a queued task
  // that has not been assigned yet, then re-pumps — the task may land
  // immediately if the new preferences name a free slot. The locality-wait
  // clock is NOT reset: re-preferring is a correction of an earlier
  // choice, not a new submission, so an old task cannot be starved by
  // repeated re-preference. Returns false (a no-op) when no queued task
  // has the id — it was already assigned, or never submitted. Used by the
  // adaptive replanner to steer not-yet-placed receiver work toward the
  // re-chosen aggregator datacenter (docs/ADAPTIVE.md).
  bool UpdatePreferences(TaskId id, std::vector<NodeIndex> preferred,
                         PlacementPolicy policy);

  // Releases the slot a task was holding and assigns queued tasks.
  // A failed task is Submit()ed again by the caller after release.
  // On a crashed node the executor's slot is already gone, but the
  // tenant's busy count is still decremented — every grant must be paired
  // with exactly one release for fair-share accounting to balance.
  void ReleaseSlot(NodeIndex node, int tenant = 0);

  // Sets a tenant's fair-share weight (> 0); tenants default to weight 1.
  void SetTenantWeight(int tenant, double weight);
  // Slots currently held by the tenant's tasks (for tests/benches).
  int tenant_busy(int tenant) const;

  // Marks a worker's executor as crashed: all of its slots (free and busy)
  // disappear and no task is assigned to it until SetNodeUp. The caller is
  // responsible for resubmitting tasks that were running there.
  void SetNodeDown(NodeIndex node);
  // Brings a fresh executor up on the node with its full slot count.
  void SetNodeUp(NodeIndex node);
  bool node_up(NodeIndex node) const;

  int free_slots(NodeIndex node) const;
  int queued_tasks() const;
  int busy_slots_in(DcIndex dc) const;

 private:
  struct Pending {
    TaskRequest request;
    // Global submission order: UpdatePreferences rewrites the oldest
    // queued task with the id, whichever tenant queue holds it.
    std::uint64_t seq = 0;
    SimTime submitted_at = 0;
    // Absolute time at which any-placement becomes allowed; computed once
    // at submission so it compares exactly against the wait_expiry wake-up
    // (recomputing now + wait at check time can differ by one ulp).
    SimTime spill_at = 0;
    EventHandle wait_expiry;
  };
  using Queue = std::list<Pending>;

  bool TryAssign(Pending& pending);
  void Pump();
  void EnsureTenant(int tenant);
  // Orders tenant a before b by weighted busy share (cross-multiplied to
  // avoid division), ties to the lower id.
  bool SmallerShare(int a, int b) const;
  // Adds `delta` free slots on `node`, keeping the per-datacenter and
  // total counts in step.
  void AddFree(NodeIndex node, int delta);

  NodeIndex BestFreeNodeIn(const std::vector<NodeIndex>& candidates) const;
  // Level 2: the first most-free worker in the datacenters of `preferred`,
  // in preference order; datacenters without a free slot are skipped.
  NodeIndex BestFreeNodeNear(const std::vector<NodeIndex>& preferred) const;
  NodeIndex LeastLoadedFreeWorker() const;
  // True iff no datacenter hosting a preferred node has a live worker.
  bool NoLiveWorkerNear(const std::vector<NodeIndex>& preferred) const;

  Simulator& sim_;
  const Topology& topo_;
  TaskSchedulerConfig config_;
  std::vector<int> free_;     // free slots per node (0 for non-workers)
  std::vector<int> dc_free_;  // free slots per datacenter
  int total_free_ = 0;        // free slots in the whole cluster
  std::vector<bool> up_;      // executor liveness per node
  bool pumping_ = false;

  // Per-tenant fair-share state and FIFO queues, indexed by tenant id
  // (grown on demand).
  std::vector<double> weight_;
  std::vector<int> busy_;
  std::vector<Queue> queues_;
  std::uint64_t next_seq_ = 0;
  // Pump scratch, reused across pumps: each tenant's resume cursor and
  // the round's tenant offer order.
  std::vector<Queue::iterator> cursor_;
  std::vector<int> offer_order_;

  // Metric handles (nullptr without a registry); event-loop-only updates.
  Counter* m_submitted_ = nullptr;
  Counter* m_assigned_ = nullptr;
  Gauge* m_queue_depth_ = nullptr;
  Histogram* m_queue_wait_ = nullptr;
};

}  // namespace gs
