// Determinism of the coded shuffle (docs/CODED.md).
//
// The coded exchange adds its own simulation-time machinery — replicated
// map placement, the deferred stage-completion barrier, XOR group
// formation over the global shard list, multicast legs racing unicast
// residuals — and none of it may leak wall-clock or thread-pool state into
// results: with coding enabled (r=2 and r=3), a run's full RunReport JSON
// must be byte-identical across compute-pool widths {1, 8} and across
// in-process reruns, with the stochastic network knobs left ON. Each
// report is also pinned byte-for-byte to a committed golden, so a refactor
// of the exchange (engine/coded_plan.h) cannot drift silently. Intentional
// behavior changes regenerate the goldens:
//   GS_UPDATE_GOLDENS=1 ./geoshuffle_tests --gtest_filter='*CodedDeterminism*'
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "engine/cluster.h"
#include "engine/dataset.h"
#include "workloads/hibench.h"

namespace gs {
namespace {

RunResult RunCoded(int r, int threads) {
  RunConfig cfg;
  cfg.scheme = Scheme::kSpark;
  cfg.seed = 1;
  cfg.scale = 100;
  cfg.cost = CostModel{}.Scaled(100);
  cfg.compute_threads = threads;
  cfg.coded.enabled = true;
  cfg.coded.redundancy_r = r;
  GeoCluster cluster(Ec2SixRegionTopology(100), cfg);
  WorkloadParams params;
  params.scale = 100;
  params.collect_results = true;
  return MakeWorkload("wordcount", params)->Run(cluster, 7932);
}

std::string RunReportJson(int r, int threads) {
  return RunCoded(r, threads).report.ToJson();
}

class CodedDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(CodedDeterminismTest, ReportIdenticalAcrossThreadsAndReruns) {
  const int r = GetParam();
  const std::string one = RunReportJson(r, 1);
  const std::string eight = RunReportJson(r, 8);
  const std::string eight_again = RunReportJson(r, 8);
  EXPECT_EQ(one, eight) << "coded report depends on compute_threads";
  EXPECT_EQ(eight, eight_again) << "coded report differs across reruns";
}

TEST_P(CodedDeterminismTest, ReportMatchesGoldenByteForByte) {
  const int r = GetParam();
  const RunResult run = RunCoded(r, 1);
  // A golden of a run that formed no XOR group would pin nothing coded.
  EXPECT_GT(run.metrics.coded_groups, 0);
  const std::string got = run.report.ToJson();
  const std::string path = std::string(GS_TEST_GOLDEN_DIR) +
                           "/run_report_coded_r" + std::to_string(r) + ".json";

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
      << "coded RunReport drifted from " << path
      << "; if intentional, regenerate with GS_UPDATE_GOLDENS=1";
}

INSTANTIATE_TEST_SUITE_P(Redundancy, CodedDeterminismTest,
                         ::testing::Values(2, 3),
                         [](const auto& info) {
                           return "r" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace gs
