// oasd_detect: streams trajectories through a trained model bundle exactly
// as the online deployment would (one road segment at a time) and reports
// the detected anomalous subtrajectories.
//
//   oasd_detect --data-dir data --model data/model.rlmb --limit 20
//
// Output is one line per trajectory with an anomaly, listing the [begin,end)
// segment ranges; --all also prints clean trajectories. --out writes a CSV
// of per-edge predicted labels for downstream analysis.
#include <cstdio>
#include <string>

#include "common/csv.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "core/explainer.h"
#include "core/rl4oasd.h"
#include "io/model_io.h"
#include "tools/tool_util.h"

namespace rl4oasd {
namespace {

int Main(int argc, char** argv) {
  FlagSet flags("oasd_detect",
                "online anomalous-subtrajectory detection with a trained "
                "model bundle");
  flags.AddString("data-dir", "data", "directory with network.bin/test.bin");
  flags.AddString("network", "", "override path to the road network");
  flags.AddString("input", "", "override path to the trajectory dataset");
  flags.AddString("model", "model.rlmb", "trained model bundle");
  flags.AddInt("limit", 0, "max trajectories to process (0 = all)");
  flags.AddBool("all", false, "also print trajectories with no anomaly");
  flags.AddString("out", "", "optional CSV of predicted per-edge labels");
  flags.AddBool("explain", false,
                "print an evidence summary for each detected anomaly");
  tools::ParseFlagsOrExit(&flags, argc, argv);

  const std::string data_dir = flags.GetString("data-dir");
  const std::string net_path = flags.GetString("network").empty()
                                   ? data_dir + "/network.bin"
                                   : flags.GetString("network");
  const std::string input_path = flags.GetString("input").empty()
                                     ? data_dir + "/test.bin"
                                     : flags.GetString("input");

  const roadnet::RoadNetwork net = tools::LoadRoadNetworkOrExit(net_path);
  const traj::Dataset input = tools::LoadDatasetOrExit(input_path, net);
  auto model = tools::ExitIfError(
      io::LoadModel(&net, flags.GetString("model")));

  core::AnomalyExplainer explainer(&net, &model->preprocessor());

  size_t limit = input.size();
  if (flags.GetInt("limit") > 0) {
    limit = std::min(limit, static_cast<size_t>(flags.GetInt("limit")));
  }

  CsvTable out_table;
  out_table.header = {"id", "labels"};

  Stopwatch sw;
  int64_t total_points = 0;
  size_t num_flagged = 0;
  for (size_t i = 0; i < limit; ++i) {
    const traj::MapMatchedTrajectory& t = input[i].traj;
    if (t.edges.size() < 2) continue;
    // Stream the trajectory point by point, as the online setting requires.
    auto session = model->StartSession(t.sd(), t.start_time);
    for (traj::EdgeId e : t.edges) session.Feed(e);
    const std::vector<uint8_t> labels = session.Finish();
    total_points += static_cast<int64_t>(t.edges.size());

    const auto runs = traj::ExtractAnomalousRuns(labels);
    if (!runs.empty()) ++num_flagged;
    if (!runs.empty() || flags.GetBool("all")) {
      std::printf("traj %lld (len %zu): ", static_cast<long long>(t.id),
                  t.edges.size());
      if (runs.empty()) {
        std::printf("NORMAL\n");
      } else {
        for (const auto& r : runs) {
          std::printf("anomalous [%d,%d) ", r.begin, r.end);
        }
        std::printf("\n");
        if (flags.GetBool("explain")) {
          for (const auto& report : explainer.Explain(t, labels)) {
            std::printf("    %s\n", report.Summary().c_str());
          }
        }
      }
    }
    if (!flags.GetString("out").empty()) {
      std::string packed(labels.size(), '0');
      for (size_t k = 0; k < labels.size(); ++k) {
        packed[k] = labels[k] ? '1' : '0';
      }
      out_table.rows.push_back({std::to_string(t.id), std::move(packed)});
    }
  }
  const double elapsed = sw.ElapsedSeconds();
  std::printf(
      "processed %zu trajectories (%lld points) in %.3fs — %.1f us/point; "
      "%zu flagged anomalous\n",
      limit, static_cast<long long>(total_points), elapsed,
      total_points > 0 ? elapsed * 1e6 / static_cast<double>(total_points)
                       : 0.0,
      num_flagged);

  if (!flags.GetString("out").empty()) {
    tools::ExitIfError(WriteCsv(flags.GetString("out"), out_table));
    std::printf("wrote %s\n", flags.GetString("out").c_str());
  }
  return 0;
}

}  // namespace
}  // namespace rl4oasd

int main(int argc, char** argv) { return rl4oasd::Main(argc, argv); }
