// The repo benchmark binary. Usage (perfbench/run.py builds and calls it):
//
//   perfbench --workload edge_fleet|gps_fleet --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 runs the workload's timed phase and reports the end-to-end
// metrics; --trace 1 runs the traced layer-by-layer replay of the same
// inputs and reports the per-layer metrics that apply to the workload
// (run.py lists the others as 0). The last stdout line is the JSON result;
// the exit code is 1 when a correctness gate failed.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload edge_fleet|gps_fleet --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string trace = "0";
  std::string seconds = "10";
  std::string seed = "1";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      seed = v;
    } else if (k == "--seconds") {
      seconds = v;
    } else if (k == "--trace") {
      trace = v;
    } else if (k == "--out-dir") {
      args.out_dir = v;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1) return Usage();
  char* end = nullptr;
  args.seed = std::strtoull(seed.c_str(), &end, 10);
  if (*end != '\0') return Usage();
  args.seconds = std::atoi(seconds.c_str());
  if (args.seconds < 1 || args.seconds > 600) return Usage();
  if (trace != "0" && trace != "1") return Usage();
  args.trace = trace == "1";

  void (*run)(const Args&, Report*) = nullptr;
  if (args.workload == "edge_fleet") {
    run = args.trace ? TraceEdgeFleet : RunEdgeFleet;
  } else if (args.workload == "gps_fleet") {
    run = args.trace ? TraceGpsFleet : RunGpsFleet;
  } else {
    return Usage();
  }

  Report report;
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  report.Note("host: nproc " +
              std::to_string(std::thread::hardware_concurrency()) + ", cpu " +
              CpuModel());
  report.Note("build: " + build_type +
              (build_type == "Release" ? "" : "  (WARNING: not Release)"));
  report.Note("workload " + args.workload + ", seed " + seed + ", seconds " +
              seconds + ", trace " + trace);
  run(args, &report);
  report.Note("fail_ratio " +
              std::to_string(static_cast<double>(report.failed()) /
                             static_cast<double>(
                                 std::max<int64_t>(report.attempted(), 1))));
  report.Print();
  return report.correct() ? 0 : 1;
}
