// Evaluation metrics (paper Section V-A): NER-style precision/recall/F1 over
// anomalous subtrajectories, where per-anomaly overlap is measured with
// Jaccard similarity on road-segment positions, plus the TF1 variant that
// counts an anomaly as detected only when its Jaccard exceeds phi = 0.5.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "traj/dataset.h"
#include "traj/types.h"

namespace rl4oasd::eval {

/// Scores of one evaluation run.
struct Scores {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  double tprecision = 0.0;
  double trecall = 0.0;
  double tf1 = 0.0;
  int64_t num_gt_anomalies = 0;
  int64_t num_detected = 0;
};

/// Streaming evaluator: feed (ground truth, predicted) label sequences one
/// trajectory at a time, then call Compute().
class F1Evaluator {
 public:
  explicit F1Evaluator(double phi = 0.5) : phi_(phi) {}

  /// Accumulates one trajectory. Label vectors must be the same length.
  void Add(const std::vector<uint8_t>& ground_truth,
           const std::vector<uint8_t>& predicted);

  Scores Compute() const;

  void Reset();

 private:
  double phi_;
  double jaccard_sum_ = 0.0;
  int64_t jaccard_above_phi_ = 0;
  int64_t num_gt_runs_ = 0;
  int64_t num_pred_runs_ = 0;
};

/// Length-group index of the paper's Table III: G1 (<15), G2 (15-30),
/// G3 (30-45), G4 (>=45). Returns 0..3.
int LengthGroupOf(size_t trajectory_length);
inline constexpr int kNumLengthGroups = 4;
extern const char* const kLengthGroupNames[kNumLengthGroups];

/// Per-group plus overall scores (the row structure of Table III).
struct GroupedScores {
  Scores groups[kNumLengthGroups];
  Scores overall;
};

/// Evaluates a detector callback over a dataset, grouped by length.
template <typename DetectFn>
GroupedScores EvaluateGrouped(const traj::Dataset& test, DetectFn&& detect,
                              double phi = 0.5) {
  F1Evaluator per_group[kNumLengthGroups] = {
      F1Evaluator(phi), F1Evaluator(phi), F1Evaluator(phi), F1Evaluator(phi)};
  F1Evaluator overall(phi);
  for (const auto& lt : test.trajs()) {
    const std::vector<uint8_t> pred = detect(lt.traj);
    const int g = LengthGroupOf(lt.traj.edges.size());
    per_group[g].Add(lt.labels, pred);
    overall.Add(lt.labels, pred);
  }
  GroupedScores out;
  for (int g = 0; g < kNumLengthGroups; ++g) {
    out.groups[g] = per_group[g].Compute();
  }
  out.overall = overall.Compute();
  return out;
}

/// Formats a GroupedScores row as the paper prints Table III cells
/// ("F1 TF1" per group, then overall). A group with no ground-truth anomaly
/// and no detection has no defined F1 and prints "—" in both columns.
std::string FormatGroupedRow(const std::string& method,
                             const GroupedScores& scores);

}  // namespace rl4oasd::eval
