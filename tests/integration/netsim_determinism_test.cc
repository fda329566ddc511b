// Netsim determinism regression: a fixed-seed run of each scheme must
// serialize a byte-identical RunReport, run after run and commit after
// commit. The committed golden files pin the full observable surface of
// the simulation — metric snapshots (including the netsim solver and
// simcore queue-health counters), WAN utilization buckets, stage spans and
// cost — so any change to solver arithmetic, event ordering or metric
// accounting shows up as a one-line diff here rather than as silent drift
// in paper figures.
//
// Intentional behavior changes regenerate the goldens:
//   GS_UPDATE_GOLDENS=1 ./geoshuffle_tests --gtest_filter='*NetsimGolden*'
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "data/combiner.h"
#include "data/record.h"
#include "engine/cluster.h"
#include "engine/dataset.h"

namespace gs {
namespace {

constexpr int kMaps = 12;
constexpr int kShards = 4;

RunConfig BaseConfig(Scheme scheme) {
  RunConfig cfg;
  cfg.scheme = scheme;
  cfg.seed = 42;
  cfg.scale = 100;
  cfg.cost = CostModel{}.Scaled(100);
  cfg.compute_threads = 2;  // determinism must not depend on thread count
  // Stochastic knobs stay ON: the claim is seeded determinism, not
  // determinism-by-disabling-randomness.
  return cfg;
}

Dataset MakeInput(GeoCluster& cluster) {
  const Topology& topo = cluster.topology();
  std::vector<NodeIndex> workers;
  for (NodeIndex n = 0; n < topo.num_nodes(); ++n) {
    if (topo.node(n).worker) workers.push_back(n);
  }
  std::vector<SourceRdd::Partition> parts;
  for (int p = 0; p < kMaps; ++p) {
    std::vector<Record> records;
    records.reserve(120);
    for (int i = 0; i < 120; ++i) {
      records.push_back(
          {"key" + std::to_string((p * 131 + i) % 97), std::int64_t{1}});
    }
    SourceRdd::Partition part;
    part.records = MakeRecords(std::move(records));
    part.node = workers[p % workers.size()];
    part.bytes = SerializedSize(*part.records);
    parts.push_back(std::move(part));
  }
  return cluster.CreateSource("netsim-golden-input", std::move(parts));
}

std::string RunReportJson(Scheme scheme) {
  GeoCluster cluster(Ec2SixRegionTopology(100), BaseConfig(scheme));
  RunResult run = MakeInput(cluster)
                      .ReduceByKey(SumInt64(), kShards)
                      .Run(ActionKind::kCollect);
  return run.report.ToJson();
}

std::string GoldenPath(Scheme scheme) {
  return std::string(GS_TEST_GOLDEN_DIR) + "/run_report_" +
         SchemeName(scheme) + ".json";
}

class NetsimGoldenReportTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(NetsimGoldenReportTest, RunReportMatchesGoldenByteForByte) {
  const std::string got = RunReportJson(GetParam());
  const std::string path = GoldenPath(GetParam());

  if (std::getenv("GS_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "golden regenerated: " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden " << path
      << " — generate with GS_UPDATE_GOLDENS=1";
  std::ostringstream want;
  want << in.rdbuf();
  // Byte-for-byte: whitespace, key order and float formatting included.
  EXPECT_EQ(got, want.str())
      << "RunReport drifted from " << path
      << "; if intentional, regenerate with GS_UPDATE_GOLDENS=1";
}

// Same workload run twice in-process must also agree — catches hidden
// global state independent of the committed goldens.
TEST_P(NetsimGoldenReportTest, BackToBackRunsAreByteIdentical) {
  EXPECT_EQ(RunReportJson(GetParam()), RunReportJson(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Schemes, NetsimGoldenReportTest,
                         ::testing::Values(Scheme::kSpark,
                                           Scheme::kCentralized,
                                           Scheme::kAggShuffle),
                         [](const auto& info) {
                           return SchemeName(info.param);
                         });

}  // namespace
}  // namespace gs
