// Detector mechanics: RNEL rules, Delayed Labeling, Algorithm 1 boundary
// conditions, streaming-session equivalence, the width invariance of the
// per-point step, and the out-of-range edge check.
#include "core/detector.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/rl4oasd.h"
#include "test_util.h"

namespace rl4oasd::core {
namespace {

using ::rl4oasd::testing::MakeFigure1Example;
using ::rl4oasd::testing::SmallDataset;
using ::rl4oasd::testing::SmallGrid;

TEST(DelayedLabelingTest, MergesShortGaps) {
  // Gap of 2 zeros between 1s; D = 8 merges it.
  std::vector<uint8_t> labels = {0, 1, 0, 0, 1, 0};
  ApplyDelayedLabeling(&labels, 8);
  EXPECT_EQ(labels, (std::vector<uint8_t>{0, 1, 1, 1, 1, 0}));
}

TEST(DelayedLabelingTest, RespectsDelayBound) {
  // Gap of 4 zeros; D = 3 cannot bridge it (the lookahead scans only 3
  // segments past the boundary).
  std::vector<uint8_t> labels = {1, 0, 0, 0, 0, 1};
  ApplyDelayedLabeling(&labels, 3);
  EXPECT_EQ(labels, (std::vector<uint8_t>{1, 0, 0, 0, 0, 1}));
  // D = 4 reaches the far 1 exactly at the edge of the window.
  ApplyDelayedLabeling(&labels, 4);
  EXPECT_EQ(labels, (std::vector<uint8_t>{1, 1, 1, 1, 1, 1}));
}

TEST(DelayedLabelingTest, ExactBoundary) {
  // A zero gap of exactly D merges: the paper scans D more segments past
  // the boundary, and the far 1 sits on the D-th of them.
  std::vector<uint8_t> labels = {1, 0, 0, 1};
  ApplyDelayedLabeling(&labels, 2);
  EXPECT_EQ(labels, (std::vector<uint8_t>{1, 1, 1, 1}));
  // A gap of D+1 is out of reach.
  std::vector<uint8_t> labels2 = {1, 0, 0, 1};
  ApplyDelayedLabeling(&labels2, 1);
  EXPECT_EQ(labels2, (std::vector<uint8_t>{1, 0, 0, 1}));
}

TEST(DelayedLabelingTest, BoundaryValuesAroundD) {
  // Regression for the historical off-by-one (gaps of exactly D failed to
  // merge): sweep gap = D-1, D, D+1 for several D.
  for (int d = 1; d <= 8; ++d) {
    for (int gap = d - 1; gap <= d + 1; ++gap) {
      if (gap < 1) continue;
      std::vector<uint8_t> labels(static_cast<size_t>(gap) + 2, 0);
      labels.front() = 1;
      labels.back() = 1;
      ApplyDelayedLabeling(&labels, d);
      const bool should_merge = gap <= d;
      std::vector<uint8_t> expected(labels.size(), should_merge ? 1 : 0);
      expected.front() = 1;
      expected.back() = 1;
      EXPECT_EQ(labels, expected) << "D=" << d << " gap=" << gap;
    }
  }
}

TEST(DelayedLabelingTest, NoOpCases) {
  std::vector<uint8_t> empty;
  ApplyDelayedLabeling(&empty, 8);
  EXPECT_TRUE(empty.empty());

  std::vector<uint8_t> zeros = {0, 0, 0};
  ApplyDelayedLabeling(&zeros, 8);
  EXPECT_EQ(zeros, (std::vector<uint8_t>{0, 0, 0}));

  std::vector<uint8_t> single = {0, 1, 0};
  ApplyDelayedLabeling(&single, 8);
  EXPECT_EQ(single, (std::vector<uint8_t>{0, 1, 0}));

  std::vector<uint8_t> disabled = {1, 0, 1};
  ApplyDelayedLabeling(&disabled, 0);
  EXPECT_EQ(disabled, (std::vector<uint8_t>{1, 0, 1}));
}

TEST(DelayedLabelingTest, ChainsMultipleGaps) {
  std::vector<uint8_t> labels = {1, 0, 1, 0, 1};
  ApplyDelayedLabeling(&labels, 2);
  EXPECT_EQ(labels, (std::vector<uint8_t>{1, 1, 1, 1, 1}));
}

// ---------------------------------------------------------------------------
// RunTracker: the O(1)-per-label incremental form of DL run extraction.

/// Runs a label stream through a tracker, returning {runs finalized by
/// Push, pending run at end of stream (if any)}.
std::pair<std::vector<traj::Subtrajectory>, std::optional<traj::Subtrajectory>>
TrackStream(const std::vector<uint8_t>& labels, int d) {
  RunTracker tracker(d);
  std::vector<traj::Subtrajectory> closed;
  for (uint8_t label : labels) {
    if (const auto run = tracker.Push(label)) closed.push_back(*run);
  }
  return {closed, tracker.pending()};
}

TEST(RunTrackerTest, MatchesBatchDelayedLabelingOnRandomStreams) {
  // The tracker's finalized-runs-plus-pending must equal the runs that the
  // batch pipeline (ApplyDelayedLabeling + ExtractAnomalousRuns) computes
  // over the same sequence, for every D.
  Rng rng(123);
  for (int d : {0, 1, 2, 4, 8}) {
    for (int trial = 0; trial < 60; ++trial) {
      std::vector<uint8_t> labels(1 + rng.UniformInt(uint64_t{70}));
      for (auto& l : labels) l = rng.Bernoulli(0.35) ? 1 : 0;
      auto [closed, pending] = TrackStream(labels, d);
      if (pending.has_value()) closed.push_back(*pending);

      auto batch = labels;
      ApplyDelayedLabeling(&batch, d);
      EXPECT_EQ(closed, traj::ExtractAnomalousRuns(batch))
          << "D=" << d << " trial=" << trial;
    }
  }
}

TEST(RunTrackerTest, RunSurvivesDlMergeWithoutDuplicateClose) {
  // Regression for the duplicate/lost-alert bug: the old serving path
  // treated a run as closed at its first trailing 0 and tracked "already
  // alerted" by run *index*, so a later DL merge shifted indices and
  // re-reported or skipped runs. The tracker never finalizes a run while DL
  // can still merge it, so each final run surfaces exactly once.
  RunTracker tracker(2);
  EXPECT_EQ(tracker.Push(1), std::nullopt);  // run opens at 0
  EXPECT_EQ(tracker.Push(0), std::nullopt);  // naive closure point
  EXPECT_EQ(tracker.Push(1), std::nullopt);  // DL merges across the gap
  ASSERT_TRUE(tracker.pending().has_value());
  EXPECT_EQ(*tracker.pending(), (traj::Subtrajectory{0, 3}));
  EXPECT_EQ(tracker.Push(0), std::nullopt);  // zeros begin
  EXPECT_EQ(tracker.Push(0), std::nullopt);  // still within the DL window
  const auto closed = tracker.Push(0);       // D+1-th zero: now final
  ASSERT_TRUE(closed.has_value());
  EXPECT_EQ(*closed, (traj::Subtrajectory{0, 3}));
  EXPECT_EQ(tracker.pending(), std::nullopt);
}

TEST(RunTrackerTest, GapOfExactlyDMerges) {
  RunTracker tracker(3);
  (void)tracker.Push(1);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(tracker.Push(0), std::nullopt);
  EXPECT_EQ(tracker.Push(1), std::nullopt);  // gap == D: one merged run
  ASSERT_TRUE(tracker.pending().has_value());
  EXPECT_EQ(*tracker.pending(), (traj::Subtrajectory{0, 5}));
}

TEST(RunTrackerTest, GapOfDPlusOneClosesTheFirstRun) {
  RunTracker tracker(3);
  (void)tracker.Push(1);
  std::vector<traj::Subtrajectory> closed;
  for (int i = 0; i < 4; ++i) {
    if (const auto run = tracker.Push(0)) closed.push_back(*run);
  }
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0], (traj::Subtrajectory{0, 1}));
  // The next 1 starts a fresh run instead of merging.
  EXPECT_EQ(tracker.Push(1), std::nullopt);
  ASSERT_TRUE(tracker.pending().has_value());
  EXPECT_EQ(tracker.pending()->begin, 5);
}

TEST(RunTrackerTest, ZeroDelayClosesOnFirstZero) {
  RunTracker tracker(0);
  (void)tracker.Push(1);
  const auto closed = tracker.Push(0);
  ASSERT_TRUE(closed.has_value());
  EXPECT_EQ(*closed, (traj::Subtrajectory{0, 1}));
}

class RnelTest : public ::testing::Test {
 protected:
  void SetUp() override { ex_ = ::rl4oasd::testing::MakeFigure1Example(); }
  ::rl4oasd::testing::Figure1Example ex_;
};

TEST_F(RnelTest, Rule1PropagatesThroughChain) {
  // e11 -> e12: e11.out = 1 (only e12 leaves v8) and e12.in = 1: the label
  // propagates whatever it is.
  EXPECT_EQ(RnelDeterministicLabel(ex_.net, ex_.e["e11"], 0, ex_.e["e12"]),
            0);
  EXPECT_EQ(RnelDeterministicLabel(ex_.net, ex_.e["e11"], 1, ex_.e["e12"]),
            1);
}

TEST_F(RnelTest, Rule2NormalCannotTurnAnomalousWithoutChoice) {
  // e15 -> e10: e15.out = 1 (v4's only outgoing is e10... actually v4 has
  // e10 only), e10.in > 1 (e6, e7 and e15 enter v4). With prev label 0 the
  // label stays 0.
  ASSERT_EQ(ex_.net.EdgeOutDegree(ex_.e["e15"]), 1);
  ASSERT_GT(ex_.net.EdgeInDegree(ex_.e["e10"]), 1);
  EXPECT_EQ(RnelDeterministicLabel(ex_.net, ex_.e["e15"], 0, ex_.e["e10"]),
            0);
  // With prev label 1 the policy must decide (an anomaly can end here).
  EXPECT_EQ(RnelDeterministicLabel(ex_.net, ex_.e["e15"], 1, ex_.e["e10"]),
            -1);
}

TEST_F(RnelTest, Rule3AnomalyCannotEndWithoutChoice) {
  // e4 -> e11: e4.out > 1 (e7 and e11 leave v7), e11.in = 1. An anomalous
  // label must continue; a normal label is undetermined (the policy decides
  // whether an anomaly starts).
  ASSERT_GT(ex_.net.EdgeOutDegree(ex_.e["e4"]), 1);
  ASSERT_EQ(ex_.net.EdgeInDegree(ex_.e["e11"]), 1);
  EXPECT_EQ(RnelDeterministicLabel(ex_.net, ex_.e["e4"], 1, ex_.e["e11"]), 1);
  EXPECT_EQ(RnelDeterministicLabel(ex_.net, ex_.e["e4"], 0, ex_.e["e11"]),
            -1);
}

// End-to-end detector behaviour with an untrained model: structural
// invariants hold regardless of the policy.
class DetectorSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = MakeFigure1Example();
    Rl4OasdConfig cfg;
    cfg.rsr.embed_dim = 8;
    cfg.rsr.nrf_dim = 8;
    cfg.rsr.hidden_dim = 8;
    cfg.asd.label_dim = 8;
    cfg.use_pretrained_embeddings = false;
    cfg.pretrain_samples = 5;
    cfg.pretrain_epochs = 1;
    cfg.joint_samples = 5;
    cfg.epochs_per_traj = 1;
    model_ = std::make_unique<Rl4Oasd>(&ex_.net, cfg);
    model_->Fit(ex_.dataset);
  }

  ::rl4oasd::testing::Figure1Example ex_;
  std::unique_ptr<Rl4Oasd> model_;
};

TEST_F(DetectorSessionTest, SourceAndDestinationAlwaysNormal) {
  traj::MapMatchedTrajectory t;
  t.start_time = 9 * 3600.0;
  t.edges = ex_.t3;
  const auto labels = model_->Detect(t);
  ASSERT_EQ(labels.size(), t.edges.size());
  EXPECT_EQ(labels.front(), 0);
  EXPECT_EQ(labels.back(), 0);
}

TEST_F(DetectorSessionTest, SessionMatchesDetect) {
  traj::MapMatchedTrajectory t;
  t.start_time = 9 * 3600.0;
  t.edges = ex_.t3;
  auto session = model_->StartSession(t.sd(), t.start_time);
  for (auto e : t.edges) session.Feed(e);
  EXPECT_EQ(session.Finish(), model_->Detect(t));
}

TEST_F(DetectorSessionTest, CurrentAnomaliesAvailableMidStream) {
  traj::MapMatchedTrajectory t;
  t.start_time = 9 * 3600.0;
  t.edges = ex_.t3;
  auto session = model_->StartSession(t.sd(), t.start_time);
  for (size_t i = 0; i + 1 < t.edges.size(); ++i) {
    session.Feed(t.edges[i]);
  }
  // Mid-stream monitoring must not crash and runs must be within bounds.
  for (const auto& run : session.CurrentAnomalies()) {
    EXPECT_GE(run.begin, 0);
    EXPECT_LE(run.end, static_cast<int>(t.edges.size()));
    EXPECT_LT(run.begin, run.end);
  }
}

TEST_F(DetectorSessionTest, IncrementalRunsCoverFinalRunsExactlyOnce) {
  // The alert stream — TakeNewlyClosedRuns drained after every Feed plus
  // one final drain after Finish — must cover the final post-processed runs
  // exactly: no duplicate, no loss, begins strictly increasing. This is the
  // session-level duplicate/lost-alert regression.
  for (const auto& lt : ex_.dataset.trajs()) {
    const auto& t = lt.traj;
    if (t.edges.size() < 2) continue;
    auto session = model_->StartSession(t.sd(), t.start_time);
    std::vector<traj::Subtrajectory> alerted;
    for (auto e : t.edges) {
      session.Feed(e);
      for (const auto& run : session.TakeNewlyClosedRuns()) {
        alerted.push_back(run);
      }
    }
    const auto final_labels = session.Finish();
    for (const auto& run : session.TakeNewlyClosedRuns()) {
      alerted.push_back(run);
    }
    EXPECT_EQ(alerted, traj::ExtractAnomalousRuns(final_labels));
    for (size_t i = 1; i < alerted.size(); ++i) {
      EXPECT_GT(alerted[i].begin, alerted[i - 1].begin);
    }
    // A second drain must be empty (each run surfaces exactly once).
    EXPECT_TRUE(session.TakeNewlyClosedRuns().empty());
  }
}

// Session::Feed is FeedBatch at B = 1, and FeedBatch checks every edge id
// before anything indexes the road network with it — on the first point
// and on later ones, alone or in a wider wave.
using DetectorSessionDeathTest = DetectorSessionTest;

TEST_F(DetectorSessionDeathTest, OutOfRangeEdgeAborts) {
  const auto num_edges = static_cast<traj::EdgeId>(ex_.net.NumEdges());
  const std::string message = "edge " + std::to_string(num_edges) +
                              " outside the road network \\(" +
                              std::to_string(num_edges) + " edges\\)";
  const traj::SdPair sd{ex_.t3.front(), ex_.t3.back()};
  auto fresh = model_->StartSession(sd, 9 * 3600.0);
  EXPECT_DEATH(fresh.Feed(num_edges), message);
  auto session = model_->StartSession(sd, 9 * 3600.0);
  session.Feed(ex_.t3[0]);
  EXPECT_DEATH(session.Feed(num_edges), message);
  EXPECT_DEATH(session.Feed(-1), "edge -1 outside the road network");

  auto other = model_->StartSession(sd, 9 * 3600.0);
  other.Feed(ex_.t3[0]);
  OnlineDetector::Session* wave[] = {&session, &other};
  const traj::EdgeId edges[] = {ex_.t3[1], num_edges};
  EXPECT_DEATH(model_->detector().FeedBatch(wave, edges), message);
}

// What one trip's stream looked like from the outside.
struct TripRecord {
  std::vector<int> labels;  // per-point labels as Feed/FeedBatch returned them
  std::vector<std::pair<size_t, traj::Subtrajectory>> runs;  // (point, run)
  std::vector<uint8_t> final_labels;                         // Finish()
  double next_draw = 0.0;  // the session RNG's next Uniform() after Finish
  bool operator==(const TripRecord&) const = default;
};

// The next Uniform() of a session's RNG, read from the tail of its exported
// state (four xoshiro words, the spare flag, the spare value).
double NextDraw(const OnlineDetector::Session& session) {
  BinaryWriter w;
  session.ExportState(&w);
  constexpr size_t kRngBytes = 4 * 8 + 1 + 8;
  BinaryReader r(w.buffer().substr(w.buffer().size() - kRngBytes));
  Rng::State state;
  for (uint64_t& word : state.s) EXPECT_TRUE(r.ReadU64(&word).ok());
  uint8_t has_spare = 0;
  EXPECT_TRUE(r.ReadU8(&has_spare).ok());
  state.has_spare_gaussian = has_spare != 0;
  EXPECT_TRUE(r.ReadF64(&state.spare_gaussian).ok());
  Rng rng;
  rng.ImportState(state);
  return rng.Uniform();
}

// Streams `trips` through `det` with a rolling window of `width` live
// trips: each wave feeds the next point of every live trip, and a finished
// trip's slot goes to the next one, so the last waves are ragged. Width 1
// uses Session::Feed, every other width FeedBatch.
std::vector<TripRecord> StreamAtWidth(
    const OnlineDetector& det,
    const std::vector<traj::MapMatchedTrajectory>& trips, size_t width) {
  std::vector<TripRecord> records(trips.size());
  std::vector<OnlineDetector::Session> sessions;
  sessions.reserve(trips.size());
  for (const auto& t : trips) {
    sessions.push_back(det.StartSession(t.sd(), t.start_time));
  }
  std::vector<size_t> next_point(trips.size(), 0);
  std::vector<size_t> live;
  size_t next_trip = 0;
  while (true) {
    while (live.size() < width && next_trip < trips.size()) {
      live.push_back(next_trip++);
    }
    if (live.empty()) break;
    std::vector<OnlineDetector::Session*> wave;
    std::vector<traj::EdgeId> edges;
    for (size_t i : live) {
      wave.push_back(&sessions[i]);
      edges.push_back(trips[i].edges[next_point[i]]);
    }
    std::vector<int> labels(live.size());
    if (width == 1) {
      labels[0] = wave[0]->Feed(edges[0]);
    } else {
      det.FeedBatch(wave, edges, labels.data());
    }
    std::vector<size_t> still_live;
    for (size_t w = 0; w < live.size(); ++w) {
      const size_t i = live[w];
      TripRecord& rec = records[i];
      rec.labels.push_back(labels[w]);
      const size_t point = next_point[i]++;
      for (const auto& run : sessions[i].TakeNewlyClosedRuns()) {
        rec.runs.emplace_back(point, run);
      }
      if (next_point[i] < trips[i].edges.size()) {
        still_live.push_back(i);
        continue;
      }
      rec.final_labels = sessions[i].Finish();
      for (const auto& run : sessions[i].TakeNewlyClosedRuns()) {
        rec.runs.emplace_back(point + 1, run);
      }
      rec.next_draw = NextDraw(sessions[i]);
    }
    live.swap(still_live);
  }
  return records;
}

TEST(DetectorWidthInvarianceTest, EveryWidthMatchesWidthOne) {
  const roadnet::RoadNetwork net = SmallGrid();
  const traj::Dataset data = SmallDataset(net, /*pairs=*/4,
                                          /*anomaly_ratio=*/0.3);
  Rl4OasdConfig cfg;
  cfg.rsr.embed_dim = 8;
  cfg.rsr.nrf_dim = 8;
  cfg.rsr.hidden_dim = 8;
  cfg.asd.label_dim = 8;
  cfg.use_pretrained_embeddings = false;
  cfg.pretrain_samples = 30;
  cfg.pretrain_epochs = 1;
  cfg.joint_samples = 30;
  cfg.epochs_per_traj = 1;
  Rl4Oasd model(&net, cfg);
  model.Fit(data);

  // 41 trips of mixed lengths: widths 7, 8 and 33 all end on a ragged wave.
  std::vector<traj::MapMatchedTrajectory> trips;
  for (size_t i = 0; i < data.size() && trips.size() < 41; i += 3) {
    trips.push_back(data[i].traj);
  }
  ASSERT_EQ(trips.size(), 41u);

  for (const bool stochastic : {false, true}) {
    for (const bool use_rnel : {true, false}) {
      DetectorConfig dc = model.config().detector;
      dc.stochastic = stochastic;
      dc.use_rnel = use_rnel;
      const OnlineDetector det(&net, &model.preprocessor(), &model.rsrnet(),
                               &model.asdnet(), dc);
      const auto reference = StreamAtWidth(det, trips, 1);
      size_t anomalous_points = 0;
      for (const auto& rec : reference) {
        anomalous_points += static_cast<size_t>(
            std::count(rec.labels.begin(), rec.labels.end(), 1));
      }
      // Not vacuous: the policy labels some points anomalous.
      EXPECT_GT(anomalous_points, 0u);
      for (const size_t width : {2, 7, 8, 33}) {
        const auto got = StreamAtWidth(det, trips, width);
        for (size_t i = 0; i < trips.size(); ++i) {
          EXPECT_TRUE(got[i] == reference[i])
              << "trip " << i << " width " << width << " stochastic "
              << stochastic << " rnel " << use_rnel;
        }
      }
    }
  }
}

}  // namespace
}  // namespace rl4oasd::core
