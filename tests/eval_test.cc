// Metric tests: NER-style F1 / TF1 on hand-computed examples.
#include "eval/metrics.h"

#include <gtest/gtest.h>

namespace rl4oasd::eval {
namespace {

TEST(F1EvaluatorTest, PerfectDetection) {
  F1Evaluator ev;
  ev.Add({0, 1, 1, 0, 0}, {0, 1, 1, 0, 0});
  const Scores s = ev.Compute();
  EXPECT_DOUBLE_EQ(s.precision, 1.0);
  EXPECT_DOUBLE_EQ(s.recall, 1.0);
  EXPECT_DOUBLE_EQ(s.f1, 1.0);
  EXPECT_DOUBLE_EQ(s.tf1, 1.0);
}

TEST(F1EvaluatorTest, CompleteMiss) {
  F1Evaluator ev;
  ev.Add({0, 1, 1, 0, 0}, {0, 0, 0, 0, 0});
  const Scores s = ev.Compute();
  EXPECT_DOUBLE_EQ(s.f1, 0.0);
  EXPECT_DOUBLE_EQ(s.recall, 0.0);
  EXPECT_EQ(s.num_gt_anomalies, 1);
  EXPECT_EQ(s.num_detected, 0);
}

TEST(F1EvaluatorTest, FalsePositiveOnNormalTrajectory) {
  F1Evaluator ev;
  ev.Add({0, 0, 0, 0, 0}, {0, 1, 1, 0, 0});
  const Scores s = ev.Compute();
  // No ground-truth anomaly: precision denominator counts the spurious run.
  EXPECT_DOUBLE_EQ(s.precision, 0.0);
  EXPECT_DOUBLE_EQ(s.f1, 0.0);
  EXPECT_EQ(s.num_detected, 1);
}

TEST(F1EvaluatorTest, PartialOverlapJaccard) {
  F1Evaluator ev;
  // GT run [1,5); predicted run [3,7): intersection 2, union 6 -> J = 1/3.
  ev.Add({0, 1, 1, 1, 1, 0, 0, 0}, {0, 0, 0, 1, 1, 1, 1, 0});
  const Scores s = ev.Compute();
  EXPECT_NEAR(s.precision, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(s.recall, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(s.f1, 1.0 / 3.0, 1e-12);
  // J = 1/3 < phi = 0.5 so TF1 counts it as a miss.
  EXPECT_DOUBLE_EQ(s.tf1, 0.0);
}

TEST(F1EvaluatorTest, TF1CountsSufficientOverlap) {
  F1Evaluator ev(0.5);
  // GT [1,5), predicted [1,4): intersection 3, union 4 -> J = 0.75 >= 0.5.
  ev.Add({0, 1, 1, 1, 1, 0}, {0, 1, 1, 1, 0, 0});
  const Scores s = ev.Compute();
  EXPECT_NEAR(s.f1, 0.75, 1e-12);
  EXPECT_DOUBLE_EQ(s.tf1, 1.0);
}

TEST(F1EvaluatorTest, MultipleAnomaliesAggregated) {
  F1Evaluator ev;
  // Two GT runs; the first detected exactly, the second missed.
  ev.Add({0, 1, 1, 0, 1, 1, 0}, {0, 1, 1, 0, 0, 0, 0});
  const Scores s = ev.Compute();
  EXPECT_DOUBLE_EQ(s.precision, 1.0);     // 1.0 Jaccard over 1 predicted run
  EXPECT_DOUBLE_EQ(s.recall, 0.5);        // 1.0 over 2 GT runs
  EXPECT_NEAR(s.f1, 2.0 / 3.0, 1e-12);
}

TEST(F1EvaluatorTest, FragmentationLowersPrecision) {
  F1Evaluator ev;
  // One GT run [1,6); detection fragments it into [1,3) and [4,6).
  ev.Add({0, 1, 1, 1, 1, 1, 0}, {0, 1, 1, 0, 1, 1, 0});
  const Scores s = ev.Compute();
  // Union of overlapping predicted runs covers 4 positions, intersection 4,
  // union with GT = 5 -> J = 0.8; precision = 0.8 / 2 runs = 0.4.
  EXPECT_NEAR(s.recall, 0.8, 1e-12);
  EXPECT_NEAR(s.precision, 0.4, 1e-12);
}

TEST(F1EvaluatorTest, AccumulatesAcrossTrajectories) {
  F1Evaluator ev;
  ev.Add({0, 1, 1, 0}, {0, 1, 1, 0});
  ev.Add({0, 1, 1, 0}, {0, 0, 0, 0});
  const Scores s = ev.Compute();
  EXPECT_DOUBLE_EQ(s.precision, 1.0);
  EXPECT_DOUBLE_EQ(s.recall, 0.5);
}

TEST(F1EvaluatorTest, ResetClearsState) {
  F1Evaluator ev;
  ev.Add({0, 1, 0}, {0, 0, 0});
  ev.Reset();
  ev.Add({0, 1, 0}, {0, 1, 0});
  EXPECT_DOUBLE_EQ(ev.Compute().f1, 1.0);
}

TEST(F1EvaluatorTest, EmptyEvaluatorIsZero) {
  F1Evaluator ev;
  const Scores s = ev.Compute();
  EXPECT_DOUBLE_EQ(s.f1, 0.0);
  EXPECT_DOUBLE_EQ(s.tf1, 0.0);
}

// Display width of a UTF-8 string: count every byte that starts a code
// point (continuation bytes are 10xxxxxx).
size_t DisplayWidth(const std::string& s) {
  size_t width = 0;
  for (const char c : s) {
    if ((static_cast<unsigned char>(c) & 0xC0) != 0x80) ++width;
  }
  return width;
}

TEST(FormatGroupedRowTest, EmptyGroupPrintsAlignedDash) {
  F1Evaluator miss, false_positive, perfect;
  miss.Add({0, 1, 1, 0}, {0, 0, 0, 0});
  false_positive.Add({0, 0, 0}, {0, 1, 0});
  perfect.Add({0, 1, 1, 0}, {0, 1, 1, 0});
  GroupedScores scores;
  scores.groups[0] = F1Evaluator().Compute();  // no anomaly, no detection
  scores.groups[1] = miss.Compute();
  scores.groups[2] = false_positive.Compute();
  scores.groups[3] = perfect.Compute();
  scores.overall = perfect.Compute();

  // Only the empty group is undefined; a miss and a false positive are real
  // zeros and keep printing 0.000.
  const std::string row = FormatGroupedRow("M", scores);
  EXPECT_EQ(row,
            "M                           —     —  0.000 0.000  0.000 0.000"
            "  1.000 1.000  | 1.000 1.000");

  scores.groups[0] = perfect.Compute();
  EXPECT_EQ(DisplayWidth(row), DisplayWidth(FormatGroupedRow("M", scores)));
}

TEST(LengthGroupTest, PaperBoundaries) {
  EXPECT_EQ(LengthGroupOf(5), 0);
  EXPECT_EQ(LengthGroupOf(14), 0);
  EXPECT_EQ(LengthGroupOf(15), 1);
  EXPECT_EQ(LengthGroupOf(29), 1);
  EXPECT_EQ(LengthGroupOf(30), 2);
  EXPECT_EQ(LengthGroupOf(44), 2);
  EXPECT_EQ(LengthGroupOf(45), 3);
  EXPECT_EQ(LengthGroupOf(200), 3);
}

TEST(ExtractRunsTest, Basic) {
  auto runs = traj::ExtractAnomalousRuns({0, 1, 1, 0, 1, 0});
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0], (traj::Subtrajectory{1, 3}));
  EXPECT_EQ(runs[1], (traj::Subtrajectory{4, 5}));
}

TEST(ExtractRunsTest, RunAtEnd) {
  auto runs = traj::ExtractAnomalousRuns({0, 0, 1, 1});
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], (traj::Subtrajectory{2, 4}));
}

TEST(ExtractRunsTest, AllZero) {
  EXPECT_TRUE(traj::ExtractAnomalousRuns({0, 0, 0}).empty());
  EXPECT_TRUE(traj::ExtractAnomalousRuns({}).empty());
}

TEST(ExtractRunsTest, AllOne) {
  auto runs = traj::ExtractAnomalousRuns({1, 1, 1});
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], (traj::Subtrajectory{0, 3}));
}

}  // namespace
}  // namespace rl4oasd::eval
