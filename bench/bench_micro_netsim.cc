// Microbenchmarks (google-benchmark) of the simulation substrates: event
// queue throughput, max-min fair-share recomputation, flow churn on the
// six-region and a 12-DC synthetic topology, partitioner and combiner
// throughput. main() is gbench_main.cc (GS_BENCH_JSON → JSON output).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "data/combiner.h"
#include "data/compression.h"
#include "data/partitioner.h"
#include "netsim/network.h"
#include "simcore/simulator.h"

namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    gs::Simulator sim;
    long long sum = 0;
    for (int i = 0; i < n; ++i) {
      sim.Schedule((i * 7919) % 1000 * 0.001, [&sum, i] { sum += i; });
    }
    sim.Run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

void BM_FlowChurnSixRegions(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    gs::Simulator sim;
    gs::Topology topo = gs::Ec2SixRegionTopology();
    gs::Network net(sim, topo, gs::NetworkConfig{}, gs::Rng(7));
    gs::Rng rng(13);
    int done = 0;
    for (int i = 0; i < flows; ++i) {
      gs::NodeIndex src =
          static_cast<gs::NodeIndex>(rng.UniformInt(0, 23));
      gs::NodeIndex dst =
          static_cast<gs::NodeIndex>(rng.UniformInt(0, 23));
      net.StartFlow(src, dst, gs::MiB(1) + rng.UniformInt(0, gs::MiB(4)),
                    gs::FlowKind::kOther, [&done] { ++done; });
    }
    sim.Run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
// 2048/8192 pin the incremental solver's scaling (docs/PERF.md): the old
// all-flows quadratic reconfiguration put 8192 flows out of reach.
BENCHMARK(BM_FlowChurnSixRegions)
    ->Arg(64)
    ->Arg(512)
    ->Arg(2048)
    ->Arg(8192)
    ->Unit(benchmark::kMillisecond);

// Synthetic 12-datacenter deployment, 4 workers per DC, full WAN mesh
// (132 directed links): more, smaller rate-sharing components than the
// six-region topology, so component-restricted solves matter more.
gs::Topology TwelveDcTopology() {
  gs::Topology topo;
  for (int d = 0; d < 12; ++d) {
    topo.AddDatacenter("dc" + std::to_string(d));
    for (int n = 0; n < 4; ++n) {
      topo.AddNode({"dc" + std::to_string(d) + "-w" + std::to_string(n),
                    d, 2, gs::Gbps(1)});
    }
  }
  topo.AddUniformWanMesh(gs::Mbps(200), gs::Mbps(80), gs::Mbps(300),
                         gs::Millis(150));
  return topo;
}

void BM_FlowChurnTwelveDc(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    gs::Simulator sim;
    gs::Topology topo = TwelveDcTopology();
    gs::Network net(sim, topo, gs::NetworkConfig{}, gs::Rng(7));
    gs::Rng rng(13);
    const int nodes = topo.num_nodes();
    int done = 0;
    for (int i = 0; i < flows; ++i) {
      gs::NodeIndex src =
          static_cast<gs::NodeIndex>(rng.UniformInt(0, nodes - 1));
      gs::NodeIndex dst =
          static_cast<gs::NodeIndex>(rng.UniformInt(0, nodes - 1));
      net.StartFlow(src, dst, gs::MiB(1) + rng.UniformInt(0, gs::MiB(4)),
                    gs::FlowKind::kOther, [&done] { ++done; });
    }
    sim.Run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FlowChurnTwelveDc)
    ->Arg(2048)
    ->Arg(8192)
    ->Unit(benchmark::kMillisecond);

void BM_HashPartitioner(benchmark::State& state) {
  gs::HashPartitioner part(8);
  gs::Rng rng(3);
  std::vector<std::string> keys;
  for (int i = 0; i < 4096; ++i) {
    keys.push_back("key-" + std::to_string(rng.UniformInt(0, 1 << 20)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(part.ShardOf(keys[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashPartitioner);

void BM_CombineByKey(benchmark::State& state) {
  gs::Rng rng(5);
  std::vector<gs::Record> records;
  for (int i = 0; i < 10000; ++i) {
    records.push_back(gs::Record{
        "w" + std::to_string(rng.UniformInt(0, 999)), std::int64_t{1}});
  }
  for (auto _ : state) {
    auto combined = gs::CombineByKey(records, gs::SumInt64());
    benchmark::DoNotOptimize(combined);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_CombineByKey);

void BM_CompressionEstimate(benchmark::State& state) {
  gs::Rng rng(9);
  std::vector<std::string> vocab;
  for (int i = 0; i < 500; ++i) vocab.push_back("word" + std::to_string(i));
  std::vector<gs::Record> records;
  for (int i = 0; i < 5000; ++i) {
    records.push_back(gs::Record{
        vocab[rng.UniformInt(0, 499)],
        vocab[rng.UniformInt(0, 499)] + " " + vocab[rng.UniformInt(0, 499)]});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(gs::CompressedSize(records));
  }
}
BENCHMARK(BM_CompressionEstimate);

}  // namespace
