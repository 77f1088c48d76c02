#include "eval/metrics.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"

namespace rl4oasd::eval {

const char* const kLengthGroupNames[kNumLengthGroups] = {"G1", "G2", "G3",
                                                         "G4"};

void F1Evaluator::Add(const std::vector<uint8_t>& ground_truth,
                      const std::vector<uint8_t>& predicted) {
  RL4_CHECK_EQ(ground_truth.size(), predicted.size());
  const auto gt_runs = traj::ExtractAnomalousRuns(ground_truth);
  const auto pred_runs = traj::ExtractAnomalousRuns(predicted);
  num_gt_runs_ += static_cast<int64_t>(gt_runs.size());
  num_pred_runs_ += static_cast<int64_t>(pred_runs.size());

  for (const auto& g : gt_runs) {
    // C_o,i: the union of predicted runs overlapping this ground-truth
    // anomaly. Jaccard is computed on road-segment positions (the 1s).
    int64_t inter = 0;
    int64_t pred_in_union = 0;
    for (const auto& p : pred_runs) {
      const int lo = std::max(g.begin, p.begin);
      const int hi = std::min(g.end, p.end);
      if (lo >= hi) continue;  // no overlap
      inter += hi - lo;
      pred_in_union += p.length();
    }
    if (inter == 0) continue;  // missed anomaly contributes 0
    const int64_t uni = g.length() + pred_in_union - inter;
    const double jaccard =
        static_cast<double>(inter) / static_cast<double>(uni);
    jaccard_sum_ += jaccard;
    if (jaccard >= phi_) ++jaccard_above_phi_;
  }
}

Scores F1Evaluator::Compute() const {
  Scores s;
  s.num_gt_anomalies = num_gt_runs_;
  s.num_detected = num_pred_runs_;
  auto safe_div = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  s.precision = safe_div(jaccard_sum_, static_cast<double>(num_pred_runs_));
  s.recall = safe_div(jaccard_sum_, static_cast<double>(num_gt_runs_));
  s.f1 = safe_div(2.0 * s.precision * s.recall, s.precision + s.recall);
  s.tprecision = safe_div(static_cast<double>(jaccard_above_phi_),
                          static_cast<double>(num_pred_runs_));
  s.trecall = safe_div(static_cast<double>(jaccard_above_phi_),
                       static_cast<double>(num_gt_runs_));
  s.tf1 = safe_div(2.0 * s.tprecision * s.trecall,
                   s.tprecision + s.trecall);
  return s;
}

void F1Evaluator::Reset() {
  jaccard_sum_ = 0.0;
  jaccard_above_phi_ = 0;
  num_gt_runs_ = 0;
  num_pred_runs_ = 0;
}

int LengthGroupOf(size_t trajectory_length) {
  if (trajectory_length < 15) return 0;
  if (trajectory_length < 30) return 1;
  if (trajectory_length < 45) return 2;
  return 3;
}

std::string FormatGroupedRow(const std::string& method,
                             const GroupedScores& scores) {
  // F1 is undefined with no ground-truth anomaly and no detection; such a
  // group prints a dash in each 5-column cell instead of a 0.000 that would
  // read as a detector finding nothing.
  auto cell = [](const Scores& sc) {
    if (sc.num_gt_anomalies == 0 && sc.num_detected == 0) {
      return std::string("    —     —");
    }
    return StrFormat("%.3f %.3f", sc.f1, sc.tf1);
  };
  std::string row = StrFormat("%-22s", method.c_str());
  for (int g = 0; g < kNumLengthGroups; ++g) {
    row += "  " + cell(scores.groups[g]);
  }
  row += "  | " + cell(scores.overall);
  return row;
}

}  // namespace rl4oasd::eval
