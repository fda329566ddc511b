// Differential test of TaskScheduler's incremental pump (per-tenant FIFO
// queues, resume cursors, maintained free-slot counts; docs/PERF.md §9)
// against a test-only oracle: the restart-from-head pump it replaced,
// kept here verbatim in behaviour. Seeded random scripts drive both with
// the same Submit / ReleaseSlot / SetNodeDown / SetNodeUp /
// SetTenantWeight / UpdatePreferences operations and time steps that
// cross the locality wait; every grant (task, node, locality level,
// simulated instant, order) and the observable queue and slot state must
// match after every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/metrics_registry.h"
#include "common/rng.h"
#include "sched/task_scheduler.h"
#include "simcore/simulator.h"

namespace gs {
namespace {

// ---------------------------------------------------------------------------
// Oracle: one std::deque for every tenant; each pump round rebuilds the
// tenant offer order and rescans the queue from its head, and the level-2
// search concatenates the preferred datacenters' node lists.
// ---------------------------------------------------------------------------
class RestartFromHeadScheduler {
 public:
  RestartFromHeadScheduler(Simulator& sim, const Topology& topo,
                           TaskSchedulerConfig config,
                           MetricsRegistry* metrics)
      : sim_(sim),
        topo_(topo),
        config_(config),
        free_(topo.num_nodes(), 0),
        up_(topo.num_nodes(), true),
        weight_(1, 1.0),
        busy_(1, 0) {
    for (NodeIndex n = 0; n < topo_.num_nodes(); ++n) {
      free_[n] = topo_.node(n).worker ? topo_.node(n).cores : 0;
    }
    m_submitted_ = &metrics->counter("sched.tasks_submitted");
    m_assigned_ = &metrics->counter("sched.tasks_assigned");
    m_queue_depth_ = &metrics->gauge("sched.queue_depth");
    m_queue_wait_ = &metrics->histogram("sched.queue_wait_s",
                                        ExponentialBounds(0.01, 4, 8));
  }

  void Submit(TaskRequest request) {
    EnsureTenant(request.tenant);
    Pending pending;
    pending.submitted_at = sim_.Now();
    pending.spill_at = sim_.Now() + config_.locality_wait;
    const bool has_prefs = !request.preferred.empty();
    pending.request = std::move(request);
    if (has_prefs && config_.locality_wait > 0 &&
        (pending.request.policy == PlacementPolicy::kAnyAfterWait ||
         pending.request.policy == PlacementPolicy::kDcOnly)) {
      pending.wait_expiry =
          sim_.Schedule(config_.locality_wait, [this] { Pump(); });
    }
    queue_.push_back(std::move(pending));
    m_submitted_->Add(1);
    m_queue_depth_->Set(static_cast<std::int64_t>(queue_.size()));
    Pump();
  }

  bool UpdatePreferences(TaskId id, std::vector<NodeIndex> preferred,
                         PlacementPolicy policy) {
    for (Pending& pending : queue_) {
      if (pending.request.id != id) continue;
      pending.request.preferred = std::move(preferred);
      pending.request.policy = policy;
      Pump();
      return true;
    }
    return false;
  }

  void ReleaseSlot(NodeIndex node, int tenant) {
    EnsureTenant(tenant);
    --busy_[tenant];
    GS_CHECK(busy_[tenant] >= 0);
    if (!up_[node]) return;
    ++free_[node];
    GS_CHECK(free_[node] <= topo_.node(node).cores);
    Pump();
  }

  void SetTenantWeight(int tenant, double weight) {
    EnsureTenant(tenant);
    weight_[tenant] = weight;
    Pump();
  }

  int tenant_busy(int tenant) const {
    if (tenant >= static_cast<int>(busy_.size())) return 0;
    return busy_[tenant];
  }

  void SetNodeDown(NodeIndex node) {
    up_[node] = false;
    free_[node] = 0;
    Pump();
  }

  void SetNodeUp(NodeIndex node) {
    if (up_[node]) return;
    up_[node] = true;
    free_[node] = topo_.node(node).cores;
    Pump();
  }

  int free_slots(NodeIndex node) const { return free_[node]; }
  int queued_tasks() const { return static_cast<int>(queue_.size()); }

 private:
  struct Pending {
    TaskRequest request;
    SimTime submitted_at = 0;
    SimTime spill_at = 0;
    EventHandle wait_expiry;
  };

  void EnsureTenant(int tenant) {
    if (tenant >= static_cast<int>(weight_.size())) {
      weight_.resize(static_cast<std::size_t>(tenant) + 1, 1.0);
      busy_.resize(static_cast<std::size_t>(tenant) + 1, 0);
    }
  }

  bool SmallerShare(int a, int b) const {
    const double lhs = static_cast<double>(busy_[a]) * weight_[b];
    const double rhs = static_cast<double>(busy_[b]) * weight_[a];
    if (lhs != rhs) return lhs < rhs;
    return a < b;
  }

  NodeIndex BestFreeNodeIn(const std::vector<NodeIndex>& candidates) const {
    NodeIndex best = kNoNode;
    for (NodeIndex n : candidates) {
      if (free_[n] <= 0) continue;
      if (best == kNoNode || free_[n] > free_[best]) best = n;
    }
    return best;
  }

  NodeIndex LeastLoadedFreeWorker() const {
    NodeIndex best = kNoNode;
    for (NodeIndex n = 0; n < topo_.num_nodes(); ++n) {
      if (free_[n] <= 0) continue;
      if (best == kNoNode || free_[n] > free_[best]) best = n;
    }
    return best;
  }

  bool NoLiveWorkerNear(const std::vector<NodeIndex>& preferred) const {
    for (NodeIndex pref : preferred) {
      for (NodeIndex n : topo_.nodes_in(topo_.dc_of(pref))) {
        if (topo_.node(n).worker && up_[n]) return false;
      }
    }
    return true;
  }

  bool TryAssign(Pending& pending) {
    TaskRequest& request = pending.request;
    NodeIndex node = kNoNode;
    LocalityLevel locality = LocalityLevel::kNoPreference;
    if (!request.preferred.empty()) {
      node = BestFreeNodeIn(request.preferred);
      locality = LocalityLevel::kNodeLocal;
      if (node == kNoNode && request.policy != PlacementPolicy::kNodeOnly) {
        std::vector<NodeIndex> dc_candidates;
        for (NodeIndex pref : request.preferred) {
          for (NodeIndex n : topo_.nodes_in(topo_.dc_of(pref))) {
            dc_candidates.push_back(n);
          }
        }
        node = BestFreeNodeIn(dc_candidates);
        locality = LocalityLevel::kDcLocal;
      }
      const bool may_spill =
          request.policy == PlacementPolicy::kAnyAfterWait ||
          (request.policy == PlacementPolicy::kDcOnly &&
           NoLiveWorkerNear(request.preferred));
      if (node == kNoNode && may_spill && sim_.Now() >= pending.spill_at) {
        node = LeastLoadedFreeWorker();
        locality = LocalityLevel::kAny;
      }
    } else {
      node = LeastLoadedFreeWorker();
      locality = LocalityLevel::kNoPreference;
    }
    if (node == kNoNode) return false;
    --free_[node];
    ++busy_[request.tenant];
    pending.wait_expiry.Cancel();
    m_assigned_->Add(1);
    m_queue_wait_->Observe(sim_.Now() - pending.submitted_at);
    auto cb = std::move(request.on_assigned);
    sim_.Schedule(0, [cb = std::move(cb), node, locality] {
      cb(node, locality);
    });
    return true;
  }

  void Pump() {
    if (pumping_) return;
    pumping_ = true;
    bool assigned = true;
    while (assigned) {
      assigned = false;
      std::vector<int> tenants;
      for (const Pending& p : queue_) {
        if (std::find(tenants.begin(), tenants.end(), p.request.tenant) ==
            tenants.end()) {
          tenants.push_back(p.request.tenant);
        }
      }
      std::sort(tenants.begin(), tenants.end(),
                [this](int a, int b) { return SmallerShare(a, b); });
      for (int tenant : tenants) {
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
          if (it->request.tenant != tenant) continue;
          if (TryAssign(*it)) {
            queue_.erase(it);
            assigned = true;
            break;
          }
        }
        if (assigned) break;
      }
    }
    pumping_ = false;
    m_queue_depth_->Set(static_cast<std::int64_t>(queue_.size()));
  }

  Simulator& sim_;
  const Topology& topo_;
  TaskSchedulerConfig config_;
  std::vector<int> free_;
  std::vector<bool> up_;
  std::deque<Pending> queue_;
  bool pumping_ = false;
  std::vector<double> weight_;
  std::vector<int> busy_;
  Counter* m_submitted_ = nullptr;
  Counter* m_assigned_ = nullptr;
  Gauge* m_queue_depth_ = nullptr;
  Histogram* m_queue_wait_ = nullptr;
};

// ---------------------------------------------------------------------------
// Script runner
// ---------------------------------------------------------------------------

struct Grant {
  TaskId id = -1;
  int tenant = 0;
  NodeIndex node = kNoNode;
  LocalityLevel locality{};
  SimTime at = 0;

  bool operator==(const Grant& o) const {
    return id == o.id && tenant == o.tenant && node == o.node &&
           locality == o.locality && at == o.at;
  }
};

std::ostream& operator<<(std::ostream& os, const Grant& g) {
  return os << "{task " << g.id << ", tenant " << g.tenant << ", node "
            << g.node << ", locality " << static_cast<int>(g.locality)
            << ", t=" << g.at << "}";
}

// One scheduler on its own simulator, recording every grant as its
// on_assigned callback observes it.
template <typename Scheduler>
struct Side {
  Side(const Topology& topo, TaskSchedulerConfig config)
      : sched(sim, topo, config, &registry) {}

  void Submit(TaskId id, int tenant, std::vector<NodeIndex> preferred,
              PlacementPolicy policy) {
    TaskRequest r;
    r.id = id;
    r.tenant = tenant;
    r.preferred = std::move(preferred);
    r.policy = policy;
    r.on_assigned = [this, id, tenant](NodeIndex node, LocalityLevel loc) {
      grants.push_back({id, tenant, node, loc, sim.Now()});
    };
    sched.Submit(std::move(r));
  }

  Simulator sim;
  MetricsRegistry registry;
  Scheduler sched;
  std::vector<Grant> grants;
};

constexpr int kTenants = 4;

// Three datacenters of uneven workers plus a driver, and a fourth
// datacenter with no worker at all (preferences naming it can only ever
// spill, and only for kAnyAfterWait or an all-dead kDcOnly).
Topology ScriptTopo() {
  Topology topo;
  for (int d = 0; d < 4; ++d) topo.AddDatacenter("dc" + std::to_string(d));
  topo.AddNode({"a0", 0, 2, Gbps(1)});
  topo.AddNode({"a1", 0, 1, Gbps(1)});
  topo.AddNode({"a2", 0, 3, Gbps(1)});
  topo.AddNode({"b0", 1, 2, Gbps(1)});
  topo.AddNode({"b1", 1, 2, Gbps(1)});
  topo.AddNode({"c0", 2, 4, Gbps(1)});
  topo.AddNode({"driver", 2, 4, Gbps(1), /*worker=*/false});
  topo.AddNode({"gateway", 3, 2, Gbps(1), /*worker=*/false});
  return topo;
}

struct ScriptResult {
  bool ok = true;
  std::string failure;
  int max_queue = 0;
  int grants = 0;
};

// Runs `ops` random operations from `seed` on the incremental scheduler
// and the oracle side by side; stops at the first divergence.
ScriptResult RunScript(std::uint64_t seed, int ops) {
  ScriptResult result;
  Topology topo = ScriptTopo();
  TaskSchedulerConfig config;
  // Every fourth seed spills at once: no wait events, spill_at == now.
  config.locality_wait = seed % 4 == 0 ? 0.0 : 6.0;
  Side<TaskScheduler> fast(topo, config);
  Side<RestartFromHeadScheduler> oracle(topo, config);
  Rng rng(seed);

  std::vector<NodeIndex> workers;
  for (NodeIndex n = 0; n < topo.num_nodes(); ++n) {
    if (topo.node(n).worker) workers.push_back(n);
  }
  auto random_prefs = [&] {
    std::vector<NodeIndex> prefs;
    if (rng.Bernoulli(0.3)) return prefs;
    const int k = static_cast<int>(rng.UniformInt(1, 4));
    for (int i = 0; i < k; ++i) {
      prefs.push_back(
          static_cast<NodeIndex>(rng.UniformInt(0, topo.num_nodes() - 1)));
    }
    return prefs;
  };
  auto random_policy = [&] {
    return static_cast<PlacementPolicy>(rng.UniformInt(0, 2));
  };
  // Binary fractions: busy x weight products stay exact, so SmallerShare
  // is a total order (the pump's first invariant).
  static constexpr double kWeights[] = {0.5, 1.0, 1.5, 2.0, 3.0, 4.0};

  struct Held {
    NodeIndex node;
    int tenant;
  };
  std::vector<Held> held;
  TaskId next_id = 0;
  SimTime now = 0;
  std::size_t seen = 0;

  auto fail = [&](int step, const std::string& what) {
    result.ok = false;
    result.failure = "seed " + std::to_string(seed) + " step " +
                     std::to_string(step) + ": " + what;
  };

  for (int step = 0; step < ops; ++step) {
    const double op = rng.Uniform(0, 1);
    if (op < 0.35) {
      // Occasionally reuse an id: UpdatePreferences must then pick the
      // oldest queued task with it, across tenants.
      const TaskId id = next_id > 0 && rng.Bernoulli(0.05)
                            ? rng.UniformInt(0, next_id - 1)
                            : next_id++;
      const int tenant = static_cast<int>(rng.UniformInt(0, kTenants - 1));
      std::vector<NodeIndex> prefs = random_prefs();
      const PlacementPolicy policy = random_policy();
      fast.Submit(id, tenant, prefs, policy);
      oracle.Submit(id, tenant, std::move(prefs), policy);
    } else if (op < 0.65) {
      if (!held.empty()) {
        const auto i = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(held.size()) - 1));
        const Held h = held[i];
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
        fast.sched.ReleaseSlot(h.node, h.tenant);
        oracle.sched.ReleaseSlot(h.node, h.tenant);
      }
    } else if (op < 0.70) {
      // Crash a worker; its running tasks fail and release their slots
      // while the executor is down, as the engine does.
      const NodeIndex node = workers[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(workers.size()) - 1))];
      fast.sched.SetNodeDown(node);
      oracle.sched.SetNodeDown(node);
      for (auto it = held.begin(); it != held.end();) {
        if (it->node != node) {
          ++it;
          continue;
        }
        fast.sched.ReleaseSlot(it->node, it->tenant);
        oracle.sched.ReleaseSlot(it->node, it->tenant);
        it = held.erase(it);
      }
    } else if (op < 0.75) {
      const NodeIndex node = workers[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(workers.size()) - 1))];
      fast.sched.SetNodeUp(node);
      oracle.sched.SetNodeUp(node);
    } else if (op < 0.80) {
      const int tenant = static_cast<int>(rng.UniformInt(0, kTenants));
      const double weight = kWeights[rng.UniformInt(0, 5)];
      fast.sched.SetTenantWeight(tenant, weight);
      oracle.sched.SetTenantWeight(tenant, weight);
    } else if (op < 0.90) {
      const TaskId id = rng.UniformInt(0, next_id);
      std::vector<NodeIndex> prefs = random_prefs();
      const PlacementPolicy policy = random_policy();
      const bool a = fast.sched.UpdatePreferences(id, prefs, policy);
      const bool b = oracle.sched.UpdatePreferences(id, std::move(prefs),
                                                    policy);
      if (a != b) {
        fail(step, "UpdatePreferences(" + std::to_string(id) + ") returned " +
                       std::to_string(a) + ", oracle " + std::to_string(b));
        return result;
      }
    }
    // else: a pure time step.

    const double dt = rng.Uniform(0, 1);
    if (dt < 0.5) {
      // Same instant: only zero-delay deliveries run.
    } else if (dt < 0.8) {
      now += rng.Uniform(0, 1.5);
    } else if (dt < 0.9) {
      now += 6.0;  // exactly one locality wait
    } else {
      now += rng.Uniform(0, 8);
    }
    fast.sim.RunUntil(now);
    oracle.sim.RunUntil(now);

    if (fast.grants.size() != oracle.grants.size()) {
      fail(step, std::to_string(fast.grants.size()) + " grants, oracle " +
                     std::to_string(oracle.grants.size()));
      return result;
    }
    for (; seen < fast.grants.size(); ++seen) {
      const Grant& g = fast.grants[seen];
      if (!(g == oracle.grants[seen])) {
        std::ostringstream os;
        os << "grant #" << seen << " " << g << ", oracle "
           << oracle.grants[seen];
        fail(step, os.str());
        return result;
      }
      held.push_back({g.node, g.tenant});
    }
    if (fast.sched.queued_tasks() != oracle.sched.queued_tasks()) {
      fail(step, "queued " + std::to_string(fast.sched.queued_tasks()) +
                     ", oracle " +
                     std::to_string(oracle.sched.queued_tasks()));
      return result;
    }
    for (int t = 0; t <= kTenants; ++t) {
      if (fast.sched.tenant_busy(t) != oracle.sched.tenant_busy(t)) {
        fail(step, "tenant " + std::to_string(t) + " busy " +
                       std::to_string(fast.sched.tenant_busy(t)) +
                       ", oracle " +
                       std::to_string(oracle.sched.tenant_busy(t)));
        return result;
      }
    }
    for (NodeIndex n = 0; n < topo.num_nodes(); ++n) {
      if (fast.sched.free_slots(n) != oracle.sched.free_slots(n)) {
        fail(step, "node " + std::to_string(n) + " free slots differ");
        return result;
      }
    }
    result.max_queue = std::max(result.max_queue, fast.sched.queued_tasks());
  }
  result.grants = static_cast<int>(fast.grants.size());

  // The metrics the scheduler publishes match too.
  for (const char* name : {"sched.tasks_submitted", "sched.tasks_assigned"}) {
    if (fast.registry.counter(name).value() !=
        oracle.registry.counter(name).value()) {
      fail(ops, std::string(name) + " differs");
    }
  }
  const Gauge& depth = fast.registry.gauge("sched.queue_depth");
  const Gauge& oracle_depth = oracle.registry.gauge("sched.queue_depth");
  if (depth.value() != oracle_depth.value() ||
      depth.max_value() != oracle_depth.max_value()) {
    fail(ops, "sched.queue_depth differs");
  }
  const Histogram& wait = fast.registry.histogram(
      "sched.queue_wait_s", ExponentialBounds(0.01, 4, 8));
  const Histogram& oracle_wait = oracle.registry.histogram(
      "sched.queue_wait_s", ExponentialBounds(0.01, 4, 8));
  if (wait.count() != oracle_wait.count() ||
      wait.sum() != oracle_wait.sum()) {
    fail(ops, "sched.queue_wait_s differs");
  }
  return result;
}

// 200 seeds x 2,000 operations, in eight shards so ctest spreads them.
constexpr int kShards = 8;
constexpr int kSeedsPerShard = 25;
constexpr int kOpsPerScript = 2000;

class SchedulerDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerDifferentialTest, GrantSequenceMatchesRestartFromHeadPump) {
  int max_queue = 0;
  long long grants = 0;
  for (int i = 0; i < kSeedsPerShard; ++i) {
    const auto seed =
        static_cast<std::uint64_t>(GetParam() * kSeedsPerShard + i);
    const ScriptResult r = RunScript(seed, kOpsPerScript);
    ASSERT_TRUE(r.ok) << r.failure;
    max_queue = std::max(max_queue, r.max_queue);
    grants += r.grants;
  }
  // The scripts must actually build queues and grant through them, or the
  // comparison proves nothing.
  EXPECT_GE(max_queue, 20);
  EXPECT_GE(grants, kSeedsPerShard * kOpsPerScript / 5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerDifferentialTest,
                         ::testing::Range(0, kShards));

}  // namespace
}  // namespace gs
