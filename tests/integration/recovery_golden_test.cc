// Golden RunReports of the recovery paths (docs/FAULTS.md,
// docs/ADAPTIVE.md, docs/CODED.md).
//
// The scheme x transport goldens all run fault-free, so none of them
// reaches receiver recovery, adaptive replanning or a coded run's
// fetch-failure path. Each case here drives one of those paths on a fixed
// seed, asserts the counters that prove the path ran, and pins the full
// RunReport byte-for-byte:
//   agg_crash          AggShuffle; a push source (a DC5 worker) and an
//                      aggregator-DC worker crash while pushes are in
//                      flight: push retries, receiver recovery, fetch
//                      failures.
//   agg_adaptive_flap  AggShuffle with adaptive replanning; every link into
//                      the largest-input datacenter collapses mid-job
//                      (bench_adaptive's mid-job-flap trace): replans,
//                      moved receivers and a bandwidth fallback.
//   coded_r2_crash     Spark with coded shuffle r=2; a worker crashes
//                      mid-map and restarts (perfbench's sort-coded-faults
//                      shape): fetch failures and map resubmissions around
//                      the coded exchange.
// Intentional behavior changes regenerate the goldens:
//   GS_UPDATE_GOLDENS=1 ./geoshuffle_tests --gtest_filter='*RecoveryGolden*'
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "data/combiner.h"
#include "data/record.h"
#include "engine/cluster.h"
#include "engine/dataset.h"
#include "netsim/pricing.h"
#include "workloads/hibench.h"

namespace gs {
namespace {

// --- agg_crash -------------------------------------------------------------

// 48 map partitions, two per worker; DC0 holds the most input, so DC0 is
// the aggregator datacenter.
Dataset SkewedCounts(GeoCluster& cluster) {
  const Topology& topo = cluster.topology();
  std::vector<NodeIndex> workers;
  for (NodeIndex n = 0; n < topo.num_nodes(); ++n) {
    if (topo.node(n).worker) workers.push_back(n);
  }
  std::vector<SourceRdd::Partition> parts;
  for (int p = 0; p < 48; ++p) {
    const NodeIndex node = workers[p % workers.size()];
    const int n_records = topo.dc_of(node) == 0 ? 400 : 200;
    std::vector<Record> records;
    records.reserve(n_records);
    for (int i = 0; i < n_records; ++i) {
      records.push_back(
          {"key" + std::to_string((p * 131 + i) % 101), std::int64_t{1}});
    }
    SourceRdd::Partition part;
    part.records = MakeRecords(std::move(records));
    part.node = node;
    part.bytes = SerializedSize(*part.records);
    parts.push_back(std::move(part));
  }
  return cluster.CreateSource("recovery-input", std::move(parts))
      .ReduceByKey(SumInt64(), 8);
}

RunResult RunAggCrash() {
  RunConfig cfg;
  cfg.scheme = Scheme::kAggShuffle;
  cfg.seed = 17;
  cfg.scale = 100;
  cfg.cost = CostModel{}.Scaled(100);
  cfg.compute_threads = 2;
  cfg.fault.plan.node_crashes.push_back({0.30, /*node=*/20, 0});  // DC5
  cfg.fault.plan.node_crashes.push_back({0.35, /*node=*/1, 0});   // DC0
  GeoCluster cluster(Ec2SixRegionTopology(100), cfg);
  return SkewedCounts(cluster).Run(ActionKind::kCollect);
}

// --- agg_adaptive_flap -----------------------------------------------------

constexpr DcIndex kHotDc = 0;

// Incompressible printable filler (pushes are LZ-compressed; constant
// padding would collapse and starve the WAN of bytes).
std::string NoiseChars(std::uint64_t seed, int n) {
  std::string s;
  s.reserve(static_cast<std::size_t>(n));
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull;
  for (int j = 0; j < n; ++j) {
    x ^= x >> 29;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 32;
    s += static_cast<char>('!' + x % 90);
  }
  return s;
}

// bench_adaptive's input: the hot datacenter dominates input bytes while
// the remote partitions carry the shuffle volume in long keys.
std::vector<SourceRdd::Partition> AdaptiveParts(const Topology& topo) {
  std::vector<SourceRdd::Partition> parts;
  for (int p = 0; p < 18; ++p) {
    const bool hot = p < 12;
    std::vector<Record> records;
    records.reserve(400);
    for (int i = 0; i < 400; ++i) {
      if (hot) {
        records.push_back(
            {"h" + NoiseChars(2 * i + 1, 10), NoiseChars(i + 1000, 96)});
      } else {
        records.push_back({"r" + NoiseChars(2 * i, 60), std::int64_t{1}});
      }
    }
    SourceRdd::Partition part;
    part.records = MakeRecords(std::move(records));
    const DcIndex dc =
        hot ? kHotDc
            : static_cast<DcIndex>(1 + p % (topo.num_datacenters() - 1));
    const auto& nodes = topo.nodes_in(dc);
    part.node = nodes[p % nodes.size()];
    part.bytes = SerializedSize(*part.records);
    parts.push_back(std::move(part));
  }
  return parts;
}

// bench_adaptive's harness settings at its default scale.
RunResult RunAdaptiveCell(SimTime flap_at, bool adaptive) {
  RunConfig cfg;
  cfg.scheme = Scheme::kAggShuffle;
  cfg.seed = 11;
  cfg.scale = 100;
  cfg.cost = CostModel{}.Scaled(100);
  cfg.compute_threads = 2;
  cfg.net.jitter_interval = Seconds(5);
  cfg.net.jitter_momentum = 0.5;
  cfg.fault.reduce_failure_prob = 0.08;
  cfg.observe.egress_usd_per_gib = WanPricing::Ec2SixRegionTariff().rates();
  cfg.adaptive.enabled = adaptive;
  if (flap_at >= 0) {
    for (DcIndex src = 0; src < 6; ++src) {
      if (src == kHotDc) continue;
      LinkDegradationEvent e;
      e.at = flap_at;
      e.src = src;
      e.dst = kHotDc;
      e.factor = 0.05;
      e.duration = 0;
      e.symmetric = false;
      cfg.fault.plan.link_degradations.push_back(e);
    }
  }
  GeoCluster cluster(Ec2SixRegionTopology(100), cfg);
  return cluster.CreateSource("skewed", AdaptiveParts(cluster.topology()))
      .Map("tag",
           [](const Record& r) { return Record{r.key, std::int64_t{1}}; })
      .ReduceByKey(SumInt64(), 8)
      .Run(ActionKind::kSave);
}

RunResult RunAdaptiveFlap() {
  // The flap lands at 2% of a fault-free static probe's JCT, as in
  // bench_adaptive.
  const double probe_jct = RunAdaptiveCell(-1, false).metrics.jct();
  return RunAdaptiveCell(0.02 * probe_jct, true);
}

// --- coded_r2_crash --------------------------------------------------------

RunResult RunCodedCrash() {
  RunConfig cfg;
  cfg.scheme = Scheme::kSpark;
  cfg.seed = 1;
  cfg.scale = 100;
  cfg.cost = CostModel{}.Scaled(100);
  cfg.compute_threads = 2;
  cfg.coded.enabled = true;
  cfg.coded.redundancy_r = 2;
  cfg.fault.plan.node_crashes.push_back(
      {Seconds(6), /*node=*/20, /*restart_after=*/Seconds(20)});
  GeoCluster cluster(Ec2SixRegionTopology(100), cfg);
  WorkloadParams params;
  params.scale = 100;
  params.collect_results = true;
  return MakeWorkload("wordcount", params)->Run(cluster, 7932);
}

void ExpectGolden(const std::string& name, const std::string& got) {
  const std::string path = std::string(GS_TEST_GOLDEN_DIR) +
                           "/run_report_recovery_" + name + ".json";
  if (std::getenv("GS_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "golden regenerated: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " — generate with GS_UPDATE_GOLDENS=1";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "RunReport drifted from " << path
      << "; if intentional, regenerate with GS_UPDATE_GOLDENS=1";
}

TEST(RecoveryGoldenTest, AggShuffleReceiverAndPushSourceCrash) {
  const RunResult run = RunAggCrash();
  const JobMetrics& m = run.metrics;
  EXPECT_EQ(m.node_crashes, 2);
  EXPECT_GT(m.push_retries, 0);
  EXPECT_GT(m.task_failures, 0);
  ExpectGolden("agg_crash", run.report.ToJson());
}

TEST(RecoveryGoldenTest, AggShuffleAdaptiveMidJobFlap) {
  const RunResult run = RunAdaptiveFlap();
  const JobMetrics& m = run.metrics;
  EXPECT_GT(m.replans, 0);
  EXPECT_GT(m.receivers_moved, 0);
  EXPECT_GT(m.adaptive_fallbacks, 0);
  ExpectGolden("agg_adaptive_flap", run.report.ToJson());
}

TEST(RecoveryGoldenTest, CodedRedundancyTwoWorkerCrash) {
  const RunResult run = RunCodedCrash();
  const JobMetrics& m = run.metrics;
  EXPECT_EQ(m.node_crashes, 1);
  EXPECT_GT(m.coded_groups, 0);
  EXPECT_GT(m.fetch_failures + m.map_resubmissions, 0);
  ExpectGolden("coded_r2_crash", run.report.ToJson());
}

}  // namespace
}  // namespace gs
