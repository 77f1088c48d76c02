// Shared helpers for the tools/ binaries: uniform error exit, timing, and
// loading road networks / datasets with format auto-detection (binary .bin
// vs CSV).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/flags.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "io/dataset_io.h"
#include "roadnet/road_network.h"
#include "traj/dataset.h"

namespace rl4oasd::tools {

/// Prints the error and exits with status 1 when `st` is not OK.
inline void ExitIfError(const Status& st) {
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T ExitIfError(Result<T> result) {
  ExitIfError(result.status());
  return std::move(result).value();
}

/// Parses flags; prints help and exits 0 on --help, exits 1 on bad flags.
inline void ParseFlagsOrExit(FlagSet* flags, int argc,
                             const char* const* argv) {
  const Status st = flags->Parse(argc, argv);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n\n%s", st.ToString().c_str(),
                 flags->Help().c_str());
    std::exit(1);
  }
  if (flags->help_requested()) {
    std::fprintf(stdout, "%s", flags->Help().c_str());
    std::exit(0);
  }
}

inline bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Loads a road network: `.bin` files use the binary format, anything else
/// is treated as a CSV prefix (<prefix>.vertices.csv / <prefix>.edges.csv).
inline roadnet::RoadNetwork LoadRoadNetworkOrExit(const std::string& path) {
  if (HasSuffix(path, ".bin")) {
    return ExitIfError(io::LoadRoadNetwork(path));
  }
  return ExitIfError(roadnet::RoadNetwork::LoadCsv(path));
}

/// Loads a dataset: `.bin` binary, otherwise CSV. Exits with the first
/// trajectory point whose edge id is outside `net`: the detector and the
/// trainer index the network and the embedding tables with it.
inline traj::Dataset LoadDatasetOrExit(const std::string& path,
                                       const roadnet::RoadNetwork& net) {
  traj::Dataset ds = HasSuffix(path, ".bin")
                         ? ExitIfError(io::LoadDataset(path))
                         : ExitIfError(traj::Dataset::LoadCsv(path));
  for (const auto& lt : ds.trajs()) {
    for (size_t i = 0; i < lt.traj.edges.size(); ++i) {
      const traj::EdgeId e = lt.traj.edges[i];
      if (e < 0 || static_cast<size_t>(e) >= net.NumEdges()) {
        std::fprintf(stderr,
                     "error: trajectory %lld point %zu: edge %d outside the "
                     "road network (%zu edges)\n",
                     static_cast<long long>(lt.traj.id), i, e, net.NumEdges());
        std::exit(1);
      }
    }
  }
  return ds;
}

}  // namespace rl4oasd::tools
