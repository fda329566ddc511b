// Layer replays for the traced benchmark run.
//
// The benchmark calls the engine only through GeoCluster, so the layers
// the engine drives internally are measured by feeding them the traced
// run's own inputs again, each on its own:
//
//  * exec:    ComputeTask over every map-stage partition of the job graph,
//             serially and then as ThreadPool waves;
//  * sched:   the run's task spans, submitted to a standalone
//             TaskScheduler at their stage's recorded submission and
//             holding a slot for their recorded duration;
//  * netsim:  the run's completed flows (Network::SetFlowObserver),
//             restarted at their recorded start times on a fresh Network
//             with the run's topology, NetworkConfig and degradations.
//
// Each replay reports the host time it took plus the counts needed to
// check that it reproduced the run's work.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "engine/fault_plan.h"
#include "netsim/network.h"
#include "netsim/topology.h"
#include "rdd/rdd.h"
#include "sched/task_scheduler.h"

namespace geobench {

struct ExecReplay {
  int tasks = 0;
  double serial_s = 0;  // sum of per-task ComputeTask time, one thread
  double pool_s = 0;    // same tasks as ThreadPool::SubmitBatch waves
  std::int64_t records_in = 0;
  std::int64_t records_out = 0;
  gs::Bytes shard_bytes = 0;
  // Shard bytes per shuffle, to compare with the run's MapOutputTracker.
  std::map<gs::ShuffleId, gs::Bytes> shuffle_bytes;
};

// Replays the map stages (shuffle-write stages fed by source partitions)
// of each job graph in `jobs`. The pool run uses `threads` workers.
ExecReplay ReplayExec(const std::vector<gs::RddPtr>& jobs, int threads);

// One successful task attempt of the run.
struct SchedTask {
  gs::SimTime submit = 0;    // its stage's recorded submission
  gs::SimTime duration = 0;  // recorded slot-holding time
  int tenant = 0;
  gs::NodeIndex node = gs::kNoNode;  // where it ran; its preferred node
};

struct SchedReplay {
  double replay_s = 0;
  std::int64_t assigned = 0;
  std::int64_t peak_queue_depth = 0;
  std::vector<double> queue_waits;  // per task, simulated seconds
};

SchedReplay ReplaySched(const gs::Topology& topo,
                        const gs::TaskSchedulerConfig& config,
                        const std::vector<double>& tenant_weights,
                        const std::vector<SchedTask>& tasks);

struct NetReplay {
  double replay_s = 0;
  std::int64_t flows = 0;
  std::int64_t completed = 0;
  std::int64_t rate_recomputes = 0;
  // Directed cross-datacenter bytes, [src * num_dcs + dst].
  std::vector<gs::Bytes> pair_bytes;
};

NetReplay ReplayNet(const gs::Topology& topo, const gs::NetworkConfig& config,
                    std::uint64_t seed,
                    const std::vector<gs::FlowRecord>& flows,
                    const std::vector<gs::LinkDegradationEvent>& degradations,
                    int threads);

// Directed cross-datacenter bytes of a meter, laid out like
// NetReplay::pair_bytes.
std::vector<gs::Bytes> CrossDcPairBytes(const gs::TrafficMeter& meter,
                                        int num_dcs);

}  // namespace geobench
