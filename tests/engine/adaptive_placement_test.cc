// Aggregator choice over cached inputs (PushPairing::PairStage /
// StageInputPerDc): the chooser must weigh a cached partition in the
// datacenter of the replica the stage will actually read — the nearest
// *live* one — not blindly in the first registered location's datacenter.
// Regression coverage for the placement bug where a dead first replica
// pulled the whole aggregation toward a datacenter that could not even
// serve the block.
#include <gtest/gtest.h>

#include <numeric>

#include "engine/cluster.h"
#include "engine/dataset.h"
#include "storage/map_output_tracker.h"

namespace gs {
namespace {

RunConfig QuietConfig() {
  RunConfig cfg;
  cfg.scheme = Scheme::kAggShuffle;
  cfg.seed = 5;
  cfg.cost = CostModel{}.Scaled(100);
  cfg.net.jitter_interval = 0;
  cfg.net.wan_stall_prob = 0;
  cfg.net.wan_flow_efficiency_min = 1.0;
  cfg.cost.straggler_sigma = 0;
  cfg.cost.straggler_prob = 0;
  return cfg;
}

std::vector<Record> SomeRecords(int n, int salt) {
  std::vector<Record> records;
  for (int i = 0; i < n; ++i) {
    records.push_back({"key" + std::to_string((i + salt) % 60),
                       std::string(50, static_cast<char>('a' + i % 26))});
  }
  return records;
}

// Builds a cached dataset whose every cached partition lives on one node
// of `home_dc`, then registers a second replica of each partition on a
// node of `mirror_dc`. Returns the cached dataset.
Dataset CachedWithTwoReplicas(GeoCluster& cluster, DcIndex home_dc,
                              DcIndex mirror_dc) {
  const Topology& topo = cluster.topology();
  const NodeIndex home = topo.nodes_in(home_dc)[0];
  std::vector<SourceRdd::Partition> parts;
  for (int p = 0; p < 2; ++p) {
    SourceRdd::Partition part;
    part.records = MakeRecords(SomeRecords(120, p));
    part.node = home;
    part.bytes = SerializedSize(*part.records);
    parts.push_back(std::move(part));
  }
  Dataset cached = cluster.CreateSource("replicated", std::move(parts))
                       .Map("id", [](const Record& r) { return r; })
                       .Cache();
  (void)cached.Count();  // materialize the cache (job 1, no shuffle)

  const NodeIndex mirror = topo.nodes_in(mirror_dc)[0];
  for (int p = 0; p < cached.num_partitions(); ++p) {
    const BlockId bid = BlockId::Cached(cached.rdd()->id(), p);
    const auto locs = cluster.blocks().Locations(bid);
    EXPECT_EQ(locs.size(), 1u);
    EXPECT_EQ(topo.dc_of(locs.front()), home_dc)
        << "cached partition must start in the home datacenter";
    std::optional<Block> b = cluster.blocks().Get(locs.front(), bid);
    if (!b.has_value()) {
      ADD_FAILURE() << "cached block missing on its registered location";
      continue;
    }
    cluster.blocks().PutWithSize(mirror, bid, b->records, b->bytes);
  }
  return cached;
}

std::vector<Bytes> AggregatedBytesPerDc(GeoCluster& cluster, Dataset& cached) {
  (void)cached
      .Map("tag",
           [](const Record& r) {
             return Record{r.key.substr(0, 5), std::int64_t{1}};
           })
      .ReduceByKey(SumInt64(), 4)
      .Collect();
  return cluster.tracker().BytesPerDc(0, cluster.topology());
}

TEST(CachedCutPlacementTest, HealthyFirstReplicaKeepsHomeDcAggregation) {
  GeoCluster cluster(Ec2SixRegionTopology(100), QuietConfig());
  Dataset cached = CachedWithTwoReplicas(cluster, /*home_dc=*/2,
                                         /*mirror_dc=*/4);
  auto per_dc = AggregatedBytesPerDc(cluster, cached);
  const Bytes total =
      std::accumulate(per_dc.begin(), per_dc.end(), Bytes{0});
  ASSERT_GT(total, 0);
  EXPECT_EQ(per_dc[2], total)
      << "with all replicas live, the first (home) replica's datacenter "
         "holds the input and must aggregate";
}

TEST(CachedCutPlacementTest, DeadFirstReplicaCreditsLiveMirror) {
  GeoCluster cluster(Ec2SixRegionTopology(100), QuietConfig());
  Dataset cached = CachedWithTwoReplicas(cluster, /*home_dc=*/2,
                                         /*mirror_dc=*/4);
  // The home node dies without losing its registered blocks (executor
  // gone, disk intact): the chooser must follow the mirror replica.
  const NodeIndex home = cluster.topology().nodes_in(2)[0];
  cluster.scheduler().SetNodeDown(home);

  auto per_dc = AggregatedBytesPerDc(cluster, cached);
  const Bytes total =
      std::accumulate(per_dc.begin(), per_dc.end(), Bytes{0});
  ASSERT_GT(total, 0);
  EXPECT_EQ(per_dc[4], total)
      << "a dead first replica must not attract the aggregation; the live "
         "mirror's datacenter serves the reads";
  EXPECT_EQ(per_dc[2], 0)
      << "no shuffle input may be credited to the dead replica's dc";
}

}  // namespace
}  // namespace gs
