// Microbenchmarks (google-benchmark) of the task scheduler's pump
// (docs/PERF.md §9) on the six-region topology, three tenants weighted
// 1:2:3 as in the multi-tenant service workload:
//
//   BM_SchedSaturatedChurn/<depth>  every slot busy and <depth> tasks
//       queued; each iteration finishes the oldest running task, the
//       freed slot is re-offered, and the finishing tenant submits its
//       next task. items_per_second counts assignments, so
//       1e6 / items_per_second is the cost of one assignment in µs.
//   BM_SchedZeroFreeSubmitBurst/<n>  every slot busy; n tasks are
//       submitted back to back and none can be placed.
//
// main() is gbench_main.cc (GS_BENCH_JSON → JSON output, with the compiler
// and build type in its context).
#include <benchmark/benchmark.h>

#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "netsim/topology.h"
#include "sched/task_scheduler.h"
#include "simcore/simulator.h"

namespace {

constexpr int kTenants = 3;

// A scheduler on the six-region topology whose tasks each prefer one
// random worker (delay scheduling keeps them queued for its datacenter,
// since the clock never reaches the locality wait).
class Cluster {
 public:
  Cluster() : topo_(gs::Ec2SixRegionTopology()), sched_(sim_, topo_) {
    for (int t = 0; t < kTenants; ++t) sched_.SetTenantWeight(t, t + 1.0);
    for (gs::NodeIndex n = 0; n < topo_.num_nodes(); ++n) {
      if (topo_.node(n).worker) {
        workers_.push_back(n);
        slots_ += topo_.node(n).cores;
      }
    }
  }

  long long assigned() const { return assigned_; }

  void Submit(int tenant) {
    gs::TaskRequest r;
    r.tenant = tenant;
    r.preferred = {workers_[static_cast<std::size_t>(rng_.UniformInt(
        0, static_cast<std::int64_t>(workers_.size()) - 1))]};
    r.on_assigned = [this, tenant](gs::NodeIndex node, gs::LocalityLevel) {
      running_.push_back({node, tenant});
      ++assigned_;
    };
    sched_.Submit(std::move(r));
  }

  // Finishes the oldest running task; its tenant submits the next one.
  void Churn() {
    const Running done = running_.front();
    running_.pop_front();
    sched_.ReleaseSlot(done.node, done.tenant);
    Submit(done.tenant);
  }

  // Delivers this instant's assignment callbacks.
  void Deliver() { sim_.RunUntil(sim_.Now()); }

  // Fills every slot, then queues `depth` more tasks, tenants round-robin.
  void Saturate(int depth) {
    for (int i = 0; i < slots_ + depth; ++i) Submit(i % kTenants);
    Deliver();
  }

 private:
  struct Running {
    gs::NodeIndex node;
    int tenant;
  };

  gs::Simulator sim_;
  gs::Topology topo_;
  gs::TaskScheduler sched_;
  gs::Rng rng_{11};
  std::vector<gs::NodeIndex> workers_;
  std::deque<Running> running_;
  int slots_ = 0;
  long long assigned_ = 0;
};

void BM_SchedSaturatedChurn(benchmark::State& state) {
  Cluster cluster;
  cluster.Saturate(static_cast<int>(state.range(0)));
  const long long before = cluster.assigned();
  for (auto _ : state) {
    cluster.Churn();
    cluster.Deliver();
  }
  state.SetItemsProcessed(cluster.assigned() - before);
}
// 32 vs 2048 queued: the CI perf-smoke gate keeps the deep queue's cost
// per assignment within 10x of the shallow one's.
BENCHMARK(BM_SchedSaturatedChurn)->Arg(32)->Arg(2048);

void BM_SchedZeroFreeSubmitBurst(benchmark::State& state) {
  const int burst = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto cluster = std::make_unique<Cluster>();
    cluster->Saturate(0);
    state.ResumeTiming();
    for (int i = 0; i < burst; ++i) cluster->Submit(i % kTenants);
    state.PauseTiming();
    cluster.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * burst);
}
BENCHMARK(BM_SchedZeroFreeSubmitBurst)->Arg(2048)->Unit(
    benchmark::kMicrosecond);

}  // namespace
