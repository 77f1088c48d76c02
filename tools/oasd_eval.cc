// oasd_eval: evaluates a trained model bundle against a labeled dataset,
// printing the paper's Table III row structure (F1 / TF1 per length group
// G1..G4 plus overall).
//
//   oasd_eval --data-dir data --model data/model.rlmb
#include <cstdio>

#include "common/flags.h"
#include "core/rl4oasd.h"
#include "eval/metrics.h"
#include "io/model_io.h"
#include "tools/tool_util.h"

namespace rl4oasd {
namespace {

int Main(int argc, char** argv) {
  FlagSet flags("oasd_eval",
                "evaluate a model bundle on a labeled trajectory dataset");
  flags.AddString("data-dir", "data", "directory with network.bin/test.bin");
  flags.AddString("network", "", "override path to the road network");
  flags.AddString("test", "", "override path to the labeled test dataset");
  flags.AddString("model", "model.rlmb", "trained model bundle");
  flags.AddDouble("phi", 0.5, "TF1 Jaccard threshold (paper: 0.5)");
  flags.AddInt("limit", 0, "max trajectories to evaluate (0 = all)");
  tools::ParseFlagsOrExit(&flags, argc, argv);

  const std::string data_dir = flags.GetString("data-dir");
  const std::string net_path = flags.GetString("network").empty()
                                   ? data_dir + "/network.bin"
                                   : flags.GetString("network");
  const std::string test_path = flags.GetString("test").empty()
                                    ? data_dir + "/test.bin"
                                    : flags.GetString("test");

  const roadnet::RoadNetwork net = tools::LoadRoadNetworkOrExit(net_path);
  auto model = tools::ExitIfError(
      io::LoadModel(&net, flags.GetString("model")));
  traj::Dataset test = tools::LoadDatasetOrExit(test_path, net);
  if (flags.GetInt("limit") > 0 &&
      test.size() > static_cast<size_t>(flags.GetInt("limit"))) {
    std::vector<traj::LabeledTrajectory> subset(
        test.trajs().begin(),
        test.trajs().begin() + flags.GetInt("limit"));
    test = traj::Dataset(std::move(subset));
  }
  std::printf("evaluating %zu trajectories (%zu anomalous)\n", test.size(),
              test.NumAnomalous());

  const eval::GroupedScores scores = eval::EvaluateGrouped(
      test,
      [&](const traj::MapMatchedTrajectory& t) { return model->Detect(t); },
      flags.GetDouble("phi"));

  std::printf("%-8s %-14s %-14s %-14s %-14s %-14s\n", "", "G1", "G2", "G3",
              "G4", "Overall");
  std::printf("%s\n",
              eval::FormatGroupedRow("RL4OASD", scores).c_str());
  std::printf(
      "overall: P=%.3f R=%.3f F1=%.3f | TP=%.3f TR=%.3f TF1=%.3f "
      "(%lld ground-truth anomalies, %lld detected)\n",
      scores.overall.precision, scores.overall.recall, scores.overall.f1,
      scores.overall.tprecision, scores.overall.trecall, scores.overall.tf1,
      static_cast<long long>(scores.overall.num_gt_anomalies),
      static_cast<long long>(scores.overall.num_detected));
  return 0;
}

}  // namespace
}  // namespace rl4oasd

int main(int argc, char** argv) { return rl4oasd::Main(argc, argv); }
