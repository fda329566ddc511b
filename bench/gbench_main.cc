// main() shared by the google-benchmark microbenches (bench_micro_netsim,
// bench_micro_sched).
// Same contract as the bench_harness binaries: GS_BENCH_JSON names a JSON
// output file (run_benches.sh maps each binary to its BENCH_*.json).
// Implemented by injecting google-benchmark's own --benchmark_out flags so
// the file carries the full per-benchmark statistics; the compiler and
// build type join the host facts in its "context".
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag, fmt_flag;
  if (const char* json = std::getenv("GS_BENCH_JSON");
      json != nullptr && json[0] != '\0') {
    out_flag = "--benchmark_out=" + std::string(json);
    fmt_flag = "--benchmark_out_format=json";
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_argc = static_cast<int>(args.size());
  benchmark::Initialize(&args_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_argc, args.data())) {
    return 1;
  }
  benchmark::AddCustomContext("compiler", GS_COMPILER);
  benchmark::AddCustomContext("build_type", GS_BUILD_TYPE);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
