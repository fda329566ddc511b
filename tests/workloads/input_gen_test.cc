#include "workloads/input_gen.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "workloads/hibench.h"

namespace gs {
namespace {

TEST(InputGenTest, DefaultWeightsSkewToIngestRegion) {
  auto w = DefaultDcWeights(6);
  ASSERT_EQ(w.size(), 6u);
  EXPECT_DOUBLE_EQ(w[0], 0.4);
  double sum = 0;
  for (double v : w) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  for (std::size_t i = 1; i < w.size(); ++i) EXPECT_DOUBLE_EQ(w[i], 0.12);
}

TEST(InputGenTest, SingleDcWeightIsOne) {
  EXPECT_EQ(DefaultDcWeights(1), std::vector<double>{1.0});
}

TEST(InputGenTest, PlacePartitionsFollowsWeights) {
  Topology topo = Ec2SixRegionTopology();
  std::vector<std::vector<Record>> parts(48);
  for (auto& p : parts) p.push_back({"k", std::int64_t{1}});
  auto placed = PlacePartitions(topo, std::move(parts), DefaultDcWeights(6));
  ASSERT_EQ(placed.size(), 48u);
  std::vector<int> per_dc(6, 0);
  for (const auto& p : placed) {
    EXPECT_TRUE(topo.node(p.node).worker);
    ++per_dc[topo.dc_of(p.node)];
  }
  EXPECT_EQ(per_dc[0], 19);  // 40% of 48, largest remainder
  for (int dc = 1; dc < 6; ++dc) {
    EXPECT_GE(per_dc[dc], 5);
    EXPECT_LE(per_dc[dc], 6);
  }
}

TEST(InputGenTest, PlacePartitionsRoundRobinsWithinDc) {
  Topology topo = Ec2SixRegionTopology();
  std::vector<std::vector<Record>> parts(48);
  for (auto& p : parts) p.push_back({"k", std::int64_t{1}});
  auto placed = PlacePartitions(topo, std::move(parts), DefaultDcWeights(6));
  std::set<NodeIndex> used;
  for (const auto& p : placed) used.insert(p.node);
  EXPECT_EQ(used.size(), 24u) << "every worker should host input";
}

TEST(InputGenTest, VocabularyIsUniqueAndDeterministic) {
  Rng a(3), b(3);
  auto va = MakeVocabulary(2000, a);
  auto vb = MakeVocabulary(2000, b);
  EXPECT_EQ(va, vb);
  std::set<std::string> unique(va.begin(), va.end());
  EXPECT_EQ(unique.size(), va.size());
}

TEST(InputGenTest, TextLinesHitByteTarget) {
  Rng rng(4);
  auto vocab = MakeVocabulary(500, rng);
  ZipfSampler zipf(vocab.size(), 1.1);
  auto lines = MakeTextLines(KiB(100), 20, vocab, zipf, rng);
  Bytes total = SerializedSize(lines);
  EXPECT_GE(total, KiB(100));
  EXPECT_LT(total, KiB(105));  // overshoot bounded by one line
}

TEST(InputGenTest, KeyValueRecordsShape) {
  Rng rng(5);
  auto records = MakeKeyValueRecords(100, 90, rng, kHexAlphabet, nullptr);
  ASSERT_EQ(records.size(), 100u);
  for (const Record& r : records) {
    EXPECT_EQ(r.key.size(), 10u);
    for (char c : r.key) {
      EXPECT_NE(std::string(kHexAlphabet).find(c), std::string::npos);
    }
    EXPECT_EQ(std::get<std::string>(r.value).size(), 90u);
  }
}

TEST(InputGenTest, TextValuesUseVocabulary) {
  Rng rng(6);
  auto vocab = MakeVocabulary(50, rng);
  auto records = MakeKeyValueRecords(20, 60, rng, kHexAlphabet, &vocab);
  for (const Record& r : records) {
    EXPECT_EQ(std::get<std::string>(r.value).size(), 60u);
  }
}

TEST(InputGenTest, UniformBoundariesSortedAndSized) {
  auto b = UniformBoundaries(8, kHexAlphabet);
  EXPECT_EQ(b.size(), 7u);
  EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
  auto p = UniformBoundaries(8, kPrintableAlphabet);
  EXPECT_TRUE(std::is_sorted(p.begin(), p.end()));
  EXPECT_TRUE(UniformBoundaries(1, kHexAlphabet).empty());
}

TEST(InputGenTest, BoundariesBalanceUniformKeys) {
  Rng rng(7);
  auto records = MakeKeyValueRecords(8000, 10, rng, kHexAlphabet, nullptr);
  RangePartitioner part(UniformBoundaries(8, kHexAlphabet));
  std::vector<int> counts(8, 0);
  for (const Record& r : records) ++counts[part.ShardOf(r.key)];
  for (int c : counts) {
    EXPECT_GT(c, 600);
    EXPECT_LT(c, 1500);
  }
}

TEST(InputGenTest, WebGraphShape) {
  Rng rng(8);
  auto pages = MakeWebGraph(500, 12.0, rng);
  ASSERT_EQ(pages.size(), 500u);
  double total_degree = 0;
  for (const Record& p : pages) {
    const auto& links = std::get<std::vector<std::string>>(p.value);
    EXPECT_GE(links.size(), 1u);
    total_degree += static_cast<double>(links.size());
    for (const auto& l : links) {
      EXPECT_EQ(l[0], 'p');
      EXPECT_NE(l, p.key) << "no self-links";
    }
  }
  EXPECT_NEAR(total_degree / 500.0, 12.0, 6.0);
}

TEST(InputGenTest, LabelledDocsUseAllClasses) {
  Rng rng(9);
  auto vocab = MakeVocabulary(300, rng);
  ZipfSampler zipf(vocab.size(), 1.1);
  auto docs = MakeLabelledDocs(1000, 20, 50, vocab, zipf, rng);
  std::set<std::string> classes;
  for (const Record& d : docs) {
    EXPECT_EQ(d.key.substr(0, 5), "class");
    classes.insert(d.key);
  }
  EXPECT_EQ(classes.size(), 20u);
}

TEST(InputGenTest, GeneratorsAreSchemeIndependent) {
  // Two generators with the same seed produce identical data regardless of
  // any other state — the foundation of cross-scheme comparisons.
  auto gen = [] {
    Rng rng(77);
    return MakeKeyValueRecords(200, 30, rng, kPrintableAlphabet, nullptr);
  };
  EXPECT_EQ(gen(), gen());
}

TEST(InputGenTest, KeyValueRecordPartsMatchTheSerialChunks) {
  ThreadPool pool(3, ThreadPool::Width::kExact);
  Rng serial_rng(21), parts_rng(21);
  // 1000 records over 7 parts: six of 143 and a short last one.
  std::vector<Record> serial =
      MakeKeyValueRecords(1000, 90, serial_rng, kPrintableAlphabet, nullptr);
  auto parts =
      MakeKeyValueRecordParts(1000, 90, parts_rng, kPrintableAlphabet, 7, pool);
  ASSERT_EQ(parts.size(), 7u);
  std::vector<Record> joined;
  for (const auto& p : parts) {
    EXPECT_LE(p.size(), 143u);
    joined.insert(joined.end(), p.begin(), p.end());
  }
  EXPECT_EQ(parts.front().size(), 143u);
  EXPECT_EQ(joined, serial);
  EXPECT_EQ(parts_rng.UniformInt(0, 1 << 30), serial_rng.UniformInt(0, 1 << 30))
      << "both paths consume the same draws";
  // More parts than records leaves the tail empty.
  Rng few(22);
  auto sparse = MakeKeyValueRecordParts(3, 5, few, kHexAlphabet, 5, pool);
  ASSERT_EQ(sparse.size(), 5u);
  EXPECT_EQ(sparse[2].size(), 1u);
  EXPECT_TRUE(sparse[3].empty() && sparse[4].empty());
}

// The TeraSort input built on the compute pool: the source partitions
// (records, node, bytes) are the same at pool widths 1 and 4, and equal
// the serial records cut into the map partitions and placed.
TEST(InputGenTest, TeraSortSourceIsIndependentOfPoolWidth) {
  constexpr double kScale = 1000;  // 32,000 records
  constexpr std::uint64_t kDataSeed = 55;
  WorkloadParams params;
  params.scale = kScale;
  auto source_of = [&](int threads) {
    RunConfig cfg;
    cfg.scheme = Scheme::kSpark;
    cfg.compute_threads = threads;
    GeoCluster cluster(Ec2SixRegionTopology(kScale), cfg);
    RddPtr rdd = MakeWorkload("terasort", params)->Build(cluster, kDataSeed)
                     .rdd();
    while (!rdd->parents().empty()) rdd = rdd->parents().front();
    auto source = std::dynamic_pointer_cast<const SourceRdd>(rdd);
    GS_CHECK(source != nullptr);
    std::vector<SourceRdd::Partition> parts;
    for (int p = 0; p < source->num_partitions(); ++p) {
      parts.push_back(source->partition(p));
    }
    return parts;
  };
  const auto one = source_of(1);
  const auto four = source_of(4);

  Rng rng = Rng(kDataSeed).Split("terasort");
  std::vector<Record> serial = MakeKeyValueRecords(
      static_cast<std::size_t>(32e6 / kScale), 90, rng, kPrintableAlphabet,
      nullptr);
  const std::size_t per =
      (serial.size() + params.map_partitions - 1) / params.map_partitions;
  std::vector<std::vector<Record>> chunks(params.map_partitions);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    chunks[i / per].push_back(serial[i]);
  }
  const auto expected = PlacePartitions(Ec2SixRegionTopology(kScale),
                                        std::move(chunks),
                                        DefaultDcWeights(6));

  ASSERT_EQ(one.size(), expected.size());
  ASSERT_EQ(four.size(), expected.size());
  for (std::size_t p = 0; p < expected.size(); ++p) {
    for (const auto* got : {&one[p], &four[p]}) {
      EXPECT_EQ(*got->records, *expected[p].records) << "partition " << p;
      EXPECT_EQ(got->node, expected[p].node) << "partition " << p;
      EXPECT_EQ(got->bytes, expected[p].bytes) << "partition " << p;
    }
  }
}

}  // namespace
}  // namespace gs
