// Map-matching substrate tests: spatial index correctness and end-to-end
// HMM matching of noisy synthetic GPS back onto the true route.
#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mapmatch/hmm_matcher.h"
#include "mapmatch/spatial_index.h"
#include "roadnet/grid_city.h"
#include "test_util.h"
#include "traj/gps_sampler.h"

namespace rl4oasd::mapmatch {
namespace {

using ::rl4oasd::testing::SmallDataset;
using ::rl4oasd::testing::SmallGrid;

TEST(SpatialIndexTest, FindsNearbyEdges) {
  const auto net = SmallGrid();
  SpatialIndex index(&net);
  // Query at an edge midpoint must return that edge first.
  const roadnet::EdgeId e = 10;
  const auto candidates = index.Query(net.EdgeMidpoint(e), 50.0);
  ASSERT_FALSE(candidates.empty());
  // The edge itself (or its reverse twin, which is collinear) is closest.
  EXPECT_LT(candidates[0].distance_m, 1.0);
  bool found = false;
  for (const auto& c : candidates) found |= (c.edge == e);
  EXPECT_TRUE(found);
}

TEST(SpatialIndexTest, RespectsRadius) {
  const auto net = SmallGrid();
  SpatialIndex index(&net);
  const auto p = net.EdgeMidpoint(0);
  for (const auto& c : index.Query(p, 30.0)) {
    EXPECT_LE(c.distance_m, 30.0);
  }
}

TEST(SpatialIndexTest, CandidatesSortedAndCapped) {
  const auto net = SmallGrid();
  SpatialIndex index(&net);
  const auto candidates = index.Query(net.EdgeMidpoint(5), 500.0, 4);
  EXPECT_LE(candidates.size(), 4u);
  for (size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_LE(candidates[i - 1].distance_m, candidates[i].distance_m);
  }
}

TEST(SpatialIndexTest, FarAwayQueryIsEmpty) {
  const auto net = SmallGrid();
  SpatialIndex index(&net);
  EXPECT_TRUE(index.Query({10.0, 50.0}, 50.0).empty());
}

class HmmMatcherTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HmmMatcherTest, RecoversTrueRouteFromNoisyGps) {
  const auto net = SmallGrid();
  const auto ds = SmallDataset(net, 3, 0.1, GetParam());
  traj::GpsSamplerConfig scfg;
  scfg.noise_sigma_m = 8.0;
  traj::GpsSampler sampler(&net, scfg, GetParam());
  HmmMapMatcher matcher(&net);

  int evaluated = 0;
  double jaccard_sum = 0.0;
  for (size_t k = 0; k < std::min<size_t>(ds.size(), 15); ++k) {
    const auto& truth = ds[k].traj;
    const auto raw = sampler.Sample(truth);
    if (raw.points.size() < 5) continue;
    auto matched = matcher.Match(raw);
    ASSERT_TRUE(matched.ok()) << matched.status().ToString();
    EXPECT_TRUE(net.IsConnectedPath(matched->edges));
    // Jaccard between true and matched edge sets should be high.
    std::set<traj::EdgeId> a(truth.edges.begin(), truth.edges.end());
    std::set<traj::EdgeId> b(matched->edges.begin(), matched->edges.end());
    std::vector<traj::EdgeId> inter;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(inter));
    const double jaccard = static_cast<double>(inter.size()) /
                           static_cast<double>(a.size() + b.size() -
                                               inter.size());
    jaccard_sum += jaccard;
    ++evaluated;
  }
  ASSERT_GT(evaluated, 0);
  // Average recovery should be strong on a clean grid.
  EXPECT_GT(jaccard_sum / evaluated, 0.75);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HmmMatcherTest, ::testing::Values(1, 7, 23));

TEST(HmmMatcherErrorsTest, EmptyTrajectoryRejected) {
  const auto net = SmallGrid();
  HmmMapMatcher matcher(&net);
  traj::RawTrajectory raw;
  const auto r = matcher.Match(raw);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(HmmMatcherErrorsTest, OffNetworkGpsRejected) {
  const auto net = SmallGrid();
  HmmMapMatcher matcher(&net);
  traj::RawTrajectory raw;
  raw.points.push_back({{10.0, 50.0}, 0.0});
  raw.points.push_back({{10.0, 50.001}, 3.0});
  const auto r = matcher.Match(raw);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(HmmMatcherTest, PreservesStartTime) {
  const auto net = SmallGrid();
  const auto ds = SmallDataset(net, 2);
  traj::GpsSampler sampler(&net, {});
  HmmMapMatcher matcher(&net);
  const auto raw = sampler.Sample(ds[0].traj);
  auto matched = matcher.Match(raw);
  ASSERT_TRUE(matched.ok());
  EXPECT_DOUBLE_EQ(matched->start_time, raw.points.front().t);
  EXPECT_EQ(matched->id, raw.id);
}

// Regression: the seed matcher stamped start_time from the first *raw* fix
// even when that fix was off-network and never matched. The contract is the
// first *matched* fix's timestamp.
TEST(HmmMatcherTest, StartTimeFromFirstMatchedFix) {
  const auto net = SmallGrid();
  HmmMapMatcher matcher(&net);
  traj::RawTrajectory raw;
  raw.id = 7;
  // Two fixes ~100 km off-network (dropped from the lattice), then two
  // on-network fixes starting at t = 100.
  raw.points.push_back({{10.0, 50.0}, 0.0});
  raw.points.push_back({{10.0, 50.001}, 2.0});
  const roadnet::EdgeId e = 10;
  const roadnet::EdgeId next = net.NextEdges(e)[0];
  raw.points.push_back({net.EdgeMidpoint(e), 100.0});
  raw.points.push_back({net.EdgeMidpoint(next), 103.0});
  auto matched = matcher.Match(raw);
  ASSERT_TRUE(matched.ok()) << matched.status().ToString();
  EXPECT_DOUBLE_EQ(matched->start_time, 100.0);
}

/// Every edge within `radius` of `p`, in the pinned (distance, edge id)
/// order — the brute-force oracle for the grid index.
std::vector<EdgeCandidate> BruteForceQuery(const roadnet::RoadNetwork& net,
                                           const roadnet::LatLon& p,
                                           double radius) {
  std::vector<EdgeCandidate> expected;
  for (roadnet::EdgeId e = 0; e < static_cast<roadnet::EdgeId>(net.NumEdges());
       ++e) {
    const auto& edge = net.edge(e);
    const double d = roadnet::PointToSegmentMeters(
        p, net.vertex(edge.from).pos, net.vertex(edge.to).pos);
    if (d <= radius) expected.push_back({e, d});
  }
  std::sort(expected.begin(), expected.end(),
            [](const EdgeCandidate& a, const EdgeCandidate& b) {
              return a.distance_m != b.distance_m ? a.distance_m < b.distance_m
                                                  : a.edge < b.edge;
            });
  return expected;
}

/// Query, QueryReference and a capped Query at `p` against brute force.
/// Returns the number of edges in range.
size_t ExpectQueryMatchesBruteForce(const roadnet::RoadNetwork& net,
                                    const SpatialIndex& index,
                                    const roadnet::LatLon& p, double radius) {
  const auto expected = BruteForceQuery(net, p, radius);
  const auto where = ::testing::Message()
                     << "at (" << p.lat << ", " << p.lon << ") radius "
                     << radius;
  const auto got = index.Query(p, radius, net.NumEdges());
  EXPECT_EQ(got.size(), expected.size()) << where;
  for (size_t i = 0; i < std::min(got.size(), expected.size()); ++i) {
    EXPECT_EQ(got[i].edge, expected[i].edge) << where;
    EXPECT_EQ(got[i].distance_m, expected[i].distance_m) << where;
  }
  // The seed-era reference query returns the identical sequence.
  const auto ref = index.QueryReference(p, radius, net.NumEdges());
  EXPECT_EQ(ref.size(), expected.size()) << where;
  for (size_t i = 0; i < std::min(ref.size(), expected.size()); ++i) {
    EXPECT_EQ(ref[i].edge, expected[i].edge) << where;
    EXPECT_EQ(ref[i].distance_m, expected[i].distance_m) << where;
  }
  // The cap keeps the prefix of the same order.
  const auto capped = index.Query(p, radius, 3);
  EXPECT_EQ(capped.size(), std::min<size_t>(3, expected.size())) << where;
  for (size_t i = 0; i < std::min(capped.size(), expected.size()); ++i) {
    EXPECT_EQ(capped[i].edge, expected[i].edge) << where;
  }
  return expected.size();
}

const std::vector<double> kRadii = {15.0, 60.0, 140.0, 400.0};

// Exactness: the grid index must return the same candidate set as a brute
// force scan over every edge, in the pinned (distance, edge id) order.
TEST(SpatialIndexTest, QueryMatchesBruteForceExactly) {
  const auto net = SmallGrid();
  SpatialIndex index(&net);
  for (roadnet::EdgeId probe = 0;
       probe < static_cast<roadnet::EdgeId>(net.NumEdges()); probe += 37) {
    for (double radius : kRadii) {
      ExpectQueryMatchesBruteForce(net, index, net.EdgeMidpoint(probe), radius);
    }
  }
}

// Fixes outside the grid's cell extent: just past the outermost edges (the
// query's own cell is outside the extent but in-range edges are not), and
// about 100 km away (nothing in range).
TEST(SpatialIndexTest, QueryOutsideGridExtentMatchesBruteForce) {
  const auto net = SmallGrid();
  SpatialIndex index(&net);
  double min_lat = 90.0, max_lat = -90.0, min_lon = 180.0, max_lon = -180.0;
  for (roadnet::VertexId v = 0;
       v < static_cast<roadnet::VertexId>(net.NumVertices()); ++v) {
    min_lat = std::min(min_lat, net.vertex(v).pos.lat);
    max_lat = std::max(max_lat, net.vertex(v).pos.lat);
    min_lon = std::min(min_lon, net.vertex(v).pos.lon);
    max_lon = std::max(max_lon, net.vertex(v).pos.lon);
  }
  const double mid_lat = 0.5 * (min_lat + max_lat);
  const double mid_lon = 0.5 * (min_lon + max_lon);
  const double past = 0.003;  // ~300 m of latitude, ~290 m of longitude
  const std::vector<roadnet::LatLon> near = {
      {max_lat + past, mid_lon}, {min_lat - past, mid_lon},
      {mid_lat, max_lon + past}, {mid_lat, min_lon - past},
      {max_lat + past, max_lon + past}, {min_lat - past, min_lon - past}};
  size_t in_range = 0;
  for (const auto& p : near) {
    for (double radius : kRadii) {
      in_range += ExpectQueryMatchesBruteForce(net, index, p, radius);
    }
  }
  EXPECT_GT(in_range, 0u);  // the 400 m radius reaches back into the grid
  const std::vector<roadnet::LatLon> far = {
      {mid_lat + 0.9, mid_lon}, {mid_lat - 0.9, mid_lon},
      {mid_lat, mid_lon + 1.05}, {mid_lat, mid_lon - 1.05}};
  for (const auto& p : far) {
    for (double radius : kRadii) {
      EXPECT_EQ(ExpectQueryMatchesBruteForce(net, index, p, radius), 0u);
    }
  }
}

// Fixes exactly on cell boundaries, computed with the index's own cell
// size (250 m) and longitude scale (fixed at vertex 0's latitude).
TEST(SpatialIndexTest, QueryOnCellBoundariesMatchesBruteForce) {
  const auto net = SmallGrid();
  SpatialIndex index(&net);
  const double cell_lat = 250.0 / 111320.0;
  const double cell_lon =
      250.0 / (111320.0 * std::cos(net.vertex(0).pos.lat * 3.14159265358979 /
                                   180.0));
  for (roadnet::EdgeId probe = 0;
       probe < static_cast<roadnet::EdgeId>(net.NumEdges()); probe += 53) {
    const auto mid = net.EdgeMidpoint(probe);
    const double lat = std::floor(mid.lat / cell_lat) * cell_lat;
    const double lon = std::floor(mid.lon / cell_lon) * cell_lon;
    for (const roadnet::LatLon& p : {roadnet::LatLon{lat, lon},
                                     roadnet::LatLon{lat, mid.lon},
                                     roadnet::LatLon{mid.lat, lon}}) {
      for (double radius : kRadii) {
        ExpectQueryMatchesBruteForce(net, index, p, radius);
      }
    }
  }
}

// Negative latitude and longitude: floor() cell indices are negative and
// the grid's origin cell is not 0. One city straddles the equator and the
// prime meridian, the other lies wholly in the south-western quadrant.
TEST(SpatialIndexTest, QueryAtNegativeCoordinatesMatchesBruteForce) {
  for (const auto& [lat, lon] : {std::pair{-0.005, -0.005},
                                 std::pair{-33.45, -70.65}}) {
    roadnet::GridCityConfig cfg;
    cfg.rows = 8;
    cfg.cols = 8;
    cfg.origin_lat = lat;
    cfg.origin_lon = lon;
    const auto net = roadnet::BuildGridCity(cfg);
    SpatialIndex index(&net);
    size_t in_range = 0;
    for (roadnet::EdgeId probe = 0;
         probe < static_cast<roadnet::EdgeId>(net.NumEdges()); probe += 11) {
      for (double radius : kRadii) {
        in_range +=
            ExpectQueryMatchesBruteForce(net, index, net.EdgeMidpoint(probe),
                                         radius);
      }
    }
    EXPECT_GT(in_range, 0u);
  }
}

TEST(SpatialIndexTest, OneEdgeNetworkMatchesBruteForce) {
  roadnet::RoadNetwork net;
  const auto a = net.AddVertex({30.0, 104.0});
  const auto b = net.AddVertex({30.003, 104.004});  // crosses several cells
  net.AddEdge(a, b);
  net.Build();
  SpatialIndex index(&net);
  const std::vector<roadnet::LatLon> probes = {
      net.vertex(a).pos, net.vertex(b).pos, net.EdgeMidpoint(0),
      {30.0015, 104.0025}, {29.9995, 103.9995}, {30.9, 104.0}};
  size_t in_range = 0;
  for (const auto& p : probes) {
    for (double radius : kRadii) {
      in_range += ExpectQueryMatchesBruteForce(net, index, p, radius);
    }
  }
  EXPECT_GT(in_range, 0u);
}

// Two line subnetworks ~2.2 km apart with no connecting edge: the gap is
// unbridgeable. The seed matcher failed the whole trajectory with an
// Internal error; the contract now is graceful degradation into pieces.
roadnet::RoadNetwork MakeTwoIslands() {
  roadnet::RoadNetwork net;
  std::vector<roadnet::VertexId> a, b;
  for (int i = 0; i < 3; ++i) {
    a.push_back(net.AddVertex({30.0, 104.0 + 0.001 * i}));
    b.push_back(net.AddVertex({30.02, 104.0 + 0.001 * i}));
  }
  net.AddEdge(a[0], a[1]);  // edge 0
  net.AddEdge(a[1], a[2]);  // edge 1
  net.AddEdge(b[0], b[1]);  // edge 2
  net.AddEdge(b[1], b[2]);  // edge 3
  net.Build();
  return net;
}

traj::RawTrajectory TwoIslandsRaw(const roadnet::RoadNetwork& net) {
  traj::RawTrajectory raw;
  raw.id = 42;
  raw.points.push_back({net.EdgeMidpoint(0), 0.0});
  raw.points.push_back({net.EdgeMidpoint(1), 2.0});
  raw.points.push_back({net.EdgeMidpoint(2), 50.0});
  raw.points.push_back({net.EdgeMidpoint(3), 52.0});
  raw.points.push_back({net.EdgeMidpoint(3), 54.0});
  return raw;
}

TEST(GapHandlingTest, UnbridgeableGapDegradesToLargestPiece) {
  const auto net = MakeTwoIslands();
  HmmMapMatcher matcher(&net);
  const auto raw = TwoIslandsRaw(net);
  // Seed behavior: Status::Internal("could not stitch matched edges").
  auto matched = matcher.Match(raw);
  ASSERT_TRUE(matched.ok()) << matched.status().ToString();
  // The second island spans 3 of the 5 fixes, so it is the piece returned.
  EXPECT_EQ(matched->edges, (std::vector<traj::EdgeId>{2, 3}));
  EXPECT_DOUBLE_EQ(matched->start_time, 50.0);
}

TEST(GapHandlingTest, MatchSegmentsReturnsAllPiecesInTimeOrder) {
  const auto net = MakeTwoIslands();
  for (GapPolicy policy : {GapPolicy::kBridge, GapPolicy::kSplit}) {
    HmmConfig cfg;
    cfg.gap_policy = policy;
    HmmMapMatcher matcher(&net, cfg);
    const auto raw = TwoIslandsRaw(net);
    auto pieces = matcher.MatchSegments(raw);
    ASSERT_TRUE(pieces.ok()) << pieces.status().ToString();
    ASSERT_EQ(pieces->size(), 2u);
    EXPECT_EQ((*pieces)[0].edges, (std::vector<traj::EdgeId>{0, 1}));
    EXPECT_DOUBLE_EQ((*pieces)[0].start_time, 0.0);
    EXPECT_EQ((*pieces)[1].edges, (std::vector<traj::EdgeId>{2, 3}));
    EXPECT_DOUBLE_EQ((*pieces)[1].start_time, 50.0);
  }
}

// Pinned restart semantics (segmented Viterbi): under kSplit, matching a
// gapped trajectory piecewise equals matching each side independently.
TEST(GapHandlingTest, SplitPiecesEqualIndependentMatches) {
  const auto net = MakeTwoIslands();
  HmmConfig cfg;
  cfg.gap_policy = GapPolicy::kSplit;
  HmmMapMatcher matcher(&net, cfg);
  const auto raw = TwoIslandsRaw(net);
  auto pieces = matcher.MatchSegments(raw);
  ASSERT_TRUE(pieces.ok());
  ASSERT_EQ(pieces->size(), 2u);

  traj::RawTrajectory pre, post;
  pre.id = post.id = raw.id;
  pre.points.assign(raw.points.begin(), raw.points.begin() + 2);
  post.points.assign(raw.points.begin() + 2, raw.points.end());
  auto m_pre = matcher.Match(pre);
  auto m_post = matcher.Match(post);
  ASSERT_TRUE(m_pre.ok() && m_post.ok());
  EXPECT_EQ((*pieces)[0].edges, m_pre->edges);
  EXPECT_EQ((*pieces)[0].start_time, m_pre->start_time);
  EXPECT_EQ((*pieces)[1].edges, m_post->edges);
  EXPECT_EQ((*pieces)[1].start_time, m_post->start_time);
}

// A divided one-way loop: two parallel carriageways ~89 m apart joined at
// the ends. Hopping from the eastbound to the westbound side is a GPS gap
// (network distance ~665 m exceeds the detour bound ~445 m) but a
// connecting path exists, so kBridge stitches one connected route while
// kSplit splits.
roadnet::RoadNetwork MakeDividedLoop() {
  roadnet::RoadNetwork net;
  const auto p0 = net.AddVertex({30.0, 104.000});
  const auto p1 = net.AddVertex({30.0, 104.002});
  const auto p2 = net.AddVertex({30.0, 104.004});
  const auto q0 = net.AddVertex({30.0008, 104.004});
  const auto q1 = net.AddVertex({30.0008, 104.002});
  const auto q2 = net.AddVertex({30.0008, 104.000});
  net.AddEdge(p0, p1);  // 0: eastbound
  net.AddEdge(p1, p2);  // 1
  net.AddEdge(p2, q0);  // 2: crossover
  net.AddEdge(q0, q1);  // 3: westbound
  net.AddEdge(q1, q2);  // 4
  net.AddEdge(q2, p0);  // 5: crossover back
  net.Build();
  return net;
}

TEST(GapHandlingTest, BridgeableGapStitchesUnderBridgePolicy) {
  const auto net = MakeDividedLoop();
  traj::RawTrajectory raw;
  raw.id = 9;
  raw.points.push_back({net.EdgeMidpoint(0), 0.0});
  raw.points.push_back({net.EdgeMidpoint(0), 2.0});
  raw.points.push_back({net.EdgeMidpoint(4), 10.0});

  HmmMapMatcher bridge_matcher(&net);
  auto stitched = bridge_matcher.Match(raw);
  ASSERT_TRUE(stitched.ok()) << stitched.status().ToString();
  EXPECT_EQ(stitched->edges, (std::vector<traj::EdgeId>{0, 1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(stitched->start_time, 0.0);

  HmmConfig split_cfg;
  split_cfg.gap_policy = GapPolicy::kSplit;
  HmmMapMatcher split_matcher(&net, split_cfg);
  auto pieces = split_matcher.MatchSegments(raw);
  ASSERT_TRUE(pieces.ok());
  ASSERT_EQ(pieces->size(), 2u);
  EXPECT_EQ((*pieces)[0].edges, (std::vector<traj::EdgeId>{0}));
  EXPECT_EQ((*pieces)[1].edges, (std::vector<traj::EdgeId>{4}));
  EXPECT_DOUBLE_EQ((*pieces)[1].start_time, 10.0);
  // The split policy's Match keeps the piece with the most fixes (2 vs 1).
  auto best = split_matcher.Match(raw);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best->edges, (std::vector<traj::EdgeId>{0}));
}

}  // namespace
}  // namespace rl4oasd::mapmatch
