#include "sched/task_scheduler.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace gs {

TaskScheduler::TaskScheduler(Simulator& sim, const Topology& topo,
                             TaskSchedulerConfig config,
                             MetricsRegistry* metrics)
    : sim_(sim),
      topo_(topo),
      config_(config),
      free_(topo.num_nodes(), 0),
      dc_free_(topo.num_datacenters(), 0),
      up_(topo.num_nodes(), true),
      weight_(1, 1.0),
      busy_(1, 0),
      queues_(1) {
  for (NodeIndex n = 0; n < topo_.num_nodes(); ++n) {
    if (topo_.node(n).worker) AddFree(n, topo_.node(n).cores);
  }
  if (metrics != nullptr) {
    m_submitted_ = &metrics->counter("sched.tasks_submitted");
    m_assigned_ = &metrics->counter("sched.tasks_assigned");
    m_queue_depth_ = &metrics->gauge("sched.queue_depth");
    // 10ms .. ~160s in x4 steps; the locality wait (6s) sits mid-range.
    m_queue_wait_ = &metrics->histogram("sched.queue_wait_s",
                                        ExponentialBounds(0.01, 4, 8));
  }
}

void TaskScheduler::Submit(TaskRequest request) {
  GS_CHECK(request.on_assigned != nullptr);
  EnsureTenant(request.tenant);
  for (NodeIndex n : request.preferred) {
    GS_CHECK_MSG(n >= 0 && n < topo_.num_nodes(), "bad preferred node " << n);
  }
  Pending pending;
  pending.seq = next_seq_++;
  pending.submitted_at = sim_.Now();
  // The spill deadline is computed ONCE and the wake-up is scheduled for
  // that same instant, so the eligibility comparison in TryAssign sees the
  // identical double when the wake fires. Re-deriving `now + wait` at
  // check time can land one ulp short of the scheduled event and leave the
  // task queued forever if no later event pumps the scheduler.
  pending.spill_at = sim_.Now() + config_.locality_wait;
  const bool has_prefs = !request.preferred.empty();
  pending.request = std::move(request);
  if (has_prefs && config_.locality_wait > 0 &&
      (pending.request.policy == PlacementPolicy::kAnyAfterWait ||
       pending.request.policy == PlacementPolicy::kDcOnly)) {
    // Wake the scheduler when this task becomes eligible for ANY placement
    // (for kDcOnly that only ever applies if its datacenters lose every
    // worker; the event is cancelled on assignment either way).
    pending.wait_expiry =
        sim_.Schedule(config_.locality_wait, [this] { Pump(); });
  }
  queues_[pending.request.tenant].push_back(std::move(pending));
  if (m_submitted_ != nullptr) {
    m_submitted_->Add(1);
    m_queue_depth_->Set(queued_tasks());
  }
  Pump();
}

bool TaskScheduler::UpdatePreferences(TaskId id,
                                      std::vector<NodeIndex> preferred,
                                      PlacementPolicy policy) {
  for (NodeIndex n : preferred) {
    GS_CHECK_MSG(n >= 0 && n < topo_.num_nodes(), "bad preferred node " << n);
  }
  // The oldest queued task with the id: the first match in each tenant's
  // FIFO, then the earliest submission across tenants.
  Pending* match = nullptr;
  for (Queue& queue : queues_) {
    for (Pending& pending : queue) {
      if (pending.request.id != id) continue;
      if (match == nullptr || pending.seq < match->seq) match = &pending;
      break;
    }
  }
  if (match == nullptr) return false;
  match->request.preferred = std::move(preferred);
  match->request.policy = policy;
  // spill_at and the wait-expiry event stay as submitted: the task's
  // locality-wait clock started when it entered the queue.
  Pump();
  return true;
}

void TaskScheduler::ReleaseSlot(NodeIndex node, int tenant) {
  GS_CHECK(node >= 0 && node < topo_.num_nodes());
  GS_CHECK_MSG(topo_.node(node).worker, "released slot on non-worker");
  EnsureTenant(tenant);
  // The tenant's busy count balances even when the executor died: the
  // grant happened, so the release must be accounted.
  --busy_[tenant];
  GS_CHECK_MSG(busy_[tenant] >= 0, "tenant " << tenant << " over-released");
  if (!up_[node]) return;  // executor crashed: the slot died with it
  AddFree(node, 1);
  GS_CHECK(free_[node] <= topo_.node(node).cores);
  Pump();
}

void TaskScheduler::SetTenantWeight(int tenant, double weight) {
  GS_CHECK_MSG(weight > 0, "tenant weight must be positive");
  EnsureTenant(tenant);
  weight_[tenant] = weight;
  Pump();  // a weight change can reorder which tenant is offered next
}

int TaskScheduler::tenant_busy(int tenant) const {
  GS_CHECK(tenant >= 0);
  if (tenant >= static_cast<int>(busy_.size())) return 0;
  return busy_[tenant];
}

void TaskScheduler::EnsureTenant(int tenant) {
  GS_CHECK_MSG(tenant >= 0, "bad tenant id " << tenant);
  if (tenant >= static_cast<int>(weight_.size())) {
    weight_.resize(static_cast<std::size_t>(tenant) + 1, 1.0);
    busy_.resize(static_cast<std::size_t>(tenant) + 1, 0);
    queues_.resize(static_cast<std::size_t>(tenant) + 1);
  }
}

bool TaskScheduler::SmallerShare(int a, int b) const {
  const double lhs = static_cast<double>(busy_[a]) * weight_[b];
  const double rhs = static_cast<double>(busy_[b]) * weight_[a];
  if (lhs != rhs) return lhs < rhs;
  return a < b;
}

void TaskScheduler::AddFree(NodeIndex node, int delta) {
  free_[node] += delta;
  dc_free_[topo_.dc_of(node)] += delta;
  total_free_ += delta;
}

void TaskScheduler::SetNodeDown(NodeIndex node) {
  GS_CHECK(node >= 0 && node < topo_.num_nodes());
  GS_CHECK_MSG(topo_.node(node).worker, "crashed a non-worker");
  up_[node] = false;
  AddFree(node, -free_[node]);
  // Queued kDcOnly tasks whose last in-DC worker just died may now be
  // eligible to spill anywhere (their locality wait may long have passed).
  Pump();
}

void TaskScheduler::SetNodeUp(NodeIndex node) {
  GS_CHECK(node >= 0 && node < topo_.num_nodes());
  GS_CHECK_MSG(topo_.node(node).worker, "restarted a non-worker");
  if (up_[node]) return;
  up_[node] = true;
  AddFree(node, topo_.node(node).cores);
  Pump();
}

bool TaskScheduler::node_up(NodeIndex node) const {
  GS_CHECK(node >= 0 && node < topo_.num_nodes());
  return up_[node];
}

int TaskScheduler::free_slots(NodeIndex node) const {
  GS_CHECK(node >= 0 && node < topo_.num_nodes());
  return free_[node];
}

int TaskScheduler::queued_tasks() const {
  std::size_t queued = 0;
  for (const Queue& queue : queues_) queued += queue.size();
  return static_cast<int>(queued);
}

int TaskScheduler::busy_slots_in(DcIndex dc) const {
  int busy = 0;
  for (NodeIndex n : topo_.nodes_in(dc)) {
    if (topo_.node(n).worker && up_[n]) busy += topo_.node(n).cores - free_[n];
  }
  return busy;
}

NodeIndex TaskScheduler::BestFreeNodeIn(
    const std::vector<NodeIndex>& candidates) const {
  NodeIndex best = kNoNode;
  for (NodeIndex n : candidates) {
    if (free_[n] <= 0) continue;
    if (best == kNoNode || free_[n] > free_[best]) best = n;
  }
  return best;
}

NodeIndex TaskScheduler::BestFreeNodeNear(
    const std::vector<NodeIndex>& preferred) const {
  // Same first-max scan as BestFreeNodeIn over the concatenated node lists
  // of the preferred nodes' datacenters; a datacenter with no free slot
  // cannot contribute, and revisiting one never beats its first visit.
  NodeIndex best = kNoNode;
  for (NodeIndex pref : preferred) {
    const DcIndex dc = topo_.dc_of(pref);
    if (dc_free_[dc] <= 0) continue;
    for (NodeIndex n : topo_.nodes_in(dc)) {
      if (free_[n] <= 0) continue;
      if (best == kNoNode || free_[n] > free_[best]) best = n;
    }
  }
  return best;
}

NodeIndex TaskScheduler::LeastLoadedFreeWorker() const {
  NodeIndex best = kNoNode;
  for (NodeIndex n = 0; n < topo_.num_nodes(); ++n) {
    if (free_[n] <= 0) continue;
    if (best == kNoNode || free_[n] > free_[best]) best = n;
  }
  return best;
}

bool TaskScheduler::NoLiveWorkerNear(
    const std::vector<NodeIndex>& preferred) const {
  for (NodeIndex pref : preferred) {
    for (NodeIndex n : topo_.nodes_in(topo_.dc_of(pref))) {
      if (topo_.node(n).worker && up_[n]) return false;
    }
  }
  return true;
}

bool TaskScheduler::TryAssign(Pending& pending) {
  TaskRequest& request = pending.request;
  NodeIndex node = kNoNode;
  LocalityLevel locality = LocalityLevel::kNoPreference;

  if (!request.preferred.empty()) {
    // Level 1: exactly a preferred node.
    node = BestFreeNodeIn(request.preferred);
    locality = LocalityLevel::kNodeLocal;
    if (node == kNoNode && request.policy != PlacementPolicy::kNodeOnly) {
      // Level 2: any worker in a datacenter hosting a preferred node.
      node = BestFreeNodeNear(request.preferred);
      locality = LocalityLevel::kDcLocal;
    }
    // Level 3: anywhere, but only after the locality wait expired (delay
    // scheduling). This is what keeps reduce tasks queued for the
    // aggregator datacenter instead of instantly spilling elsewhere.
    // kDcOnly tasks get this escape hatch only when their datacenters have
    // no live worker left at all — otherwise a permanent crash of the last
    // worker in the (e.g. central) datacenter would queue them forever and
    // silently hang the job.
    if (node == kNoNode && sim_.Now() >= pending.spill_at &&
        (request.policy == PlacementPolicy::kAnyAfterWait ||
         (request.policy == PlacementPolicy::kDcOnly &&
          NoLiveWorkerNear(request.preferred)))) {
      node = LeastLoadedFreeWorker();
      locality = LocalityLevel::kAny;
    }
  } else {
    node = LeastLoadedFreeWorker();
    locality = LocalityLevel::kNoPreference;
  }

  if (node == kNoNode) return false;
  AddFree(node, -1);
  GS_CHECK(free_[node] >= 0);
  ++busy_[request.tenant];
  pending.wait_expiry.Cancel();
  if (m_assigned_ != nullptr) {
    m_assigned_->Add(1);
    m_queue_wait_->Observe(sim_.Now() - pending.submitted_at);
  }
  // Deliver through the simulator so assignment is observed at a stable
  // point in the event loop (and never reenters the scheduler mid-Pump).
  auto cb = std::move(request.on_assigned);
  sim_.Schedule(0, [cb = std::move(cb), node, locality] {
    cb(node, locality);
  });
  return true;
}

void TaskScheduler::Pump() {
  if (pumping_) return;
  pumping_ = true;
  // Weighted fair sharing: each round offers one slot to the queued tenant
  // with the smallest busy/weight share; within a tenant, first-fit in
  // submission order (a task with unsatisfiable preferences does not block
  // later tasks, matching Spark's per-offer matching). If the favored
  // tenant cannot place anything, the next-smallest share gets the offer —
  // fair sharing never idles a slot a heavier tenant could use.
  //
  // The pump is incremental, and exactly equivalent to restarting every
  // round from the head of every queue (docs/PERF.md §9):
  //  - SmallerShare is a total order, so the round's offer order depends
  //    only on the tenants' shares, not on how they are enumerated;
  //  - only the order within a tenant matters, so each tenant keeps its
  //    own FIFO;
  //  - within one pump no time passes and grants only consume slots, so a
  //    task that failed earlier in the pump still fails: each tenant's
  //    scan resumes at its cursor, and a tenant whose cursor reached the
  //    end is out of the pump. With no free slot anywhere nothing can be
  //    placed at all.
  // With a single tenant this is the original FIFO first-fit sweep.
  cursor_.resize(queues_.size());
  for (std::size_t t = 0; t < queues_.size(); ++t) {
    cursor_[t] = queues_[t].begin();
  }
  while (total_free_ > 0) {
    offer_order_.clear();
    for (std::size_t t = 0; t < queues_.size(); ++t) {
      if (cursor_[t] != queues_[t].end()) {
        offer_order_.push_back(static_cast<int>(t));
      }
    }
    std::sort(offer_order_.begin(), offer_order_.end(),
              [this](int a, int b) { return SmallerShare(a, b); });
    bool assigned = false;
    for (int tenant : offer_order_) {
      Queue& queue = queues_[tenant];
      Queue::iterator& it = cursor_[tenant];
      while (it != queue.end() && !TryAssign(*it)) ++it;
      if (it == queue.end()) continue;
      it = queue.erase(it);
      assigned = true;
      break;
    }
    if (!assigned) break;
  }
  pumping_ = false;
  if (m_queue_depth_ != nullptr) m_queue_depth_->Set(queued_tasks());
}

}  // namespace gs
