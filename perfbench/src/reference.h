// Engine-free reference for a job's output.
//
// A Save job acknowledges each output partition with its record count.
// ReferencePartitionCounts derives the same counts by walking the lineage
// graph directly: narrow functions are applied per partition, shuffles are
// bucketed through the shuffle's own partitioner and finished with
// ShuffledRdd::ProcessShard. No simulator, scheduler, block store or
// ComputeTask is involved, so a defect in the engine's data path shows up
// as a mismatch against this reference.
#pragma once

#include <cstdint>
#include <vector>

#include "common/threadpool.h"
#include "rdd/rdd.h"

namespace geobench {

// Record count of every partition of `final_rdd`, in partition order.
// Independent partitions are evaluated on `pool`.
std::vector<std::int64_t> ReferencePartitionCounts(const gs::Rdd& final_rdd,
                                                   gs::ThreadPool& pool);

}  // namespace geobench
