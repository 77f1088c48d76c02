#include "mapmatch/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "common/logging.h"

namespace rl4oasd::mapmatch {

namespace {
constexpr double kMetersPerDegLat = 111320.0;

bool ByDistanceThenEdge(const EdgeCandidate& a, const EdgeCandidate& b) {
  return a.distance_m != b.distance_m ? a.distance_m < b.distance_m
                                      : a.edge < b.edge;
}
}  // namespace

SpatialIndex::SpatialIndex(const roadnet::RoadNetwork* net,
                           double cell_size_m)
    : net_(net) {
  // Use the latitude of the first vertex to fix the longitude scale; city
  // extents are small enough that one scale suffices.
  double ref_lat = 0.0;
  if (net->NumVertices() > 0) ref_lat = net->vertex(0).pos.lat;
  meters_per_deg_lon_ =
      kMetersPerDegLat * std::cos(ref_lat * 3.14159265358979 / 180.0);
  cell_deg_lat_ = cell_size_m / kMetersPerDegLat;
  cell_deg_lon_ = cell_size_m / meters_per_deg_lon_;

  const auto num_edges = static_cast<roadnet::EdgeId>(net->NumEdges());
  segs_.reserve(net->NumEdges());
  for (roadnet::EdgeId e = 0; e < num_edges; ++e) {
    const auto& edge = net->edge(e);
    segs_.push_back({net->vertex(edge.from).pos, net->vertex(edge.to).pos});
  }

  // An edge is registered in every cell its bounding box overlaps.
  struct CellRange {
    int x0, x1, y0, y1;
  };
  const auto range_of = [this](const Segment& s) {
    return CellRange{CellX(std::min(s.a.lon, s.b.lon)),
                     CellX(std::max(s.a.lon, s.b.lon)),
                     CellY(std::min(s.a.lat, s.b.lat)),
                     CellY(std::max(s.a.lat, s.b.lat))};
  };
  if (segs_.empty()) {
    cell_start_.assign(1, 0);
    return;
  }
  int x1 = std::numeric_limits<int>::min();
  int y1 = std::numeric_limits<int>::min();
  x0_ = std::numeric_limits<int>::max();
  y0_ = std::numeric_limits<int>::max();
  for (const Segment& s : segs_) {
    const CellRange r = range_of(s);
    x0_ = std::min(x0_, r.x0);
    x1 = std::max(x1, r.x1);
    y0_ = std::min(y0_, r.y0);
    y1 = std::max(y1, r.y1);
  }
  nx_ = x1 - x0_ + 1;
  ny_ = y1 - y0_ + 1;

  // Two-pass CSR fill: count per cell, prefix-sum, then place ids in edge id
  // order so every cell list is ascending.
  const size_t num_cells = static_cast<size_t>(nx_) * static_cast<size_t>(ny_);
  std::vector<size_t> fill(num_cells + 1, 0);
  for (const Segment& s : segs_) {
    const CellRange r = range_of(s);
    for (int cy = r.y0; cy <= r.y1; ++cy) {
      for (int cx = r.x0; cx <= r.x1; ++cx) {
        ++fill[static_cast<size_t>(cy - y0_) * nx_ + (cx - x0_) + 1];
      }
    }
  }
  for (size_t i = 0; i < num_cells; ++i) fill[i + 1] += fill[i];
  RL4_CHECK(fill[num_cells] <= std::numeric_limits<uint32_t>::max());
  cell_start_.assign(fill.begin(), fill.end());
  cell_edges_.resize(fill[num_cells]);
  for (roadnet::EdgeId e = 0; e < num_edges; ++e) {
    const CellRange r = range_of(segs_[static_cast<size_t>(e)]);
    for (int cy = r.y0; cy <= r.y1; ++cy) {
      for (int cx = r.x0; cx <= r.x1; ++cx) {
        cell_edges_[fill[static_cast<size_t>(cy - y0_) * nx_ + (cx - x0_)]++] =
            e;
      }
    }
  }
}

int SpatialIndex::CellX(double lon) const {
  return static_cast<int>(std::floor(lon / cell_deg_lon_));
}
int SpatialIndex::CellY(double lat) const {
  return static_cast<int>(std::floor(lat / cell_deg_lat_));
}

std::span<const roadnet::EdgeId> SpatialIndex::Cell(int cx, int cy) const {
  if (cx < x0_ || cx - x0_ >= nx_ || cy < y0_ || cy - y0_ >= ny_) return {};
  const size_t i = static_cast<size_t>(cy - y0_) * nx_ + (cx - x0_);
  return {cell_edges_.data() + cell_start_[i],
          cell_edges_.data() + cell_start_[i + 1]};
}

std::vector<EdgeCandidate> SpatialIndex::Query(const roadnet::LatLon& p,
                                               double radius_m,
                                               size_t max_candidates) const {
  std::vector<EdgeCandidate> out;
  QueryInto(p, radius_m, max_candidates, &out);
  return out;
}

void SpatialIndex::QueryInto(const roadnet::LatLon& p, double radius_m,
                             size_t max_candidates,
                             std::vector<EdgeCandidate>* out) const {
  out->clear();
  if (max_candidates == 0 || radius_m < 0.0) return;

  // Exact ring iteration: an edge within `radius_m` of `p` passes through at
  // least one cell whose rectangle comes within `radius_m` of `p` (the edge
  // is registered in every cell its bounding box overlaps, including the one
  // containing its closest point to `p`). So it suffices to visit, per cell
  // row, the contiguous dx range whose rectangle-to-point distance is within
  // the radius, clipped to the grid's extent (cells outside it are empty).
  // The per-cell bound is made slightly conservative (inflated radius) to
  // absorb the difference between this planar scale and the equirectangular
  // metric used for the exact per-edge distances below; extra cells cost a
  // few box tests, a skipped qualifying cell would cost correctness.
  const double slack_m = radius_m * 0.02 + 1.0;
  const int cx = CellX(p.lon);
  const int cy = CellY(p.lat);
  const int ry =
      static_cast<int>(std::ceil((radius_m + slack_m) /
                                 (cell_deg_lat_ * kMetersPerDegLat)));
  // Box prescreen, applied to each id as its cell is visited: the box-to-
  // point distance lower-bounds the segment distance, and the same
  // conservative slack absorbs the planar scale difference, so no
  // qualifying edge can be prescreened away.
  const double screen_m = radius_m + slack_m;
  const double screen_sq = screen_m * screen_m;
  for (int dy = -ry; dy <= ry; ++dy) {
    const int row = cy + dy - y0_;
    if (row < 0 || row >= ny_) continue;
    // Meters from p.lat to the nearest latitude of cell row (cy + dy).
    double lat_gap_deg = 0.0;
    if (dy > 0) {
      lat_gap_deg = static_cast<double>(cy + dy) * cell_deg_lat_ - p.lat;
    } else if (dy < 0) {
      lat_gap_deg = p.lat - static_cast<double>(cy + dy + 1) * cell_deg_lat_;
    }
    const double lat_gap_m = std::max(0.0, lat_gap_deg) * kMetersPerDegLat;
    if (lat_gap_m > screen_m) continue;
    // Within this row, the reachable dx range: lon gap shrinks the budget
    // left after the lat gap.
    const double lon_budget_m = std::sqrt(
        std::max(0.0, screen_m * screen_m - lat_gap_m * lat_gap_m));
    const int rx = static_cast<int>(
        std::ceil(lon_budget_m / (cell_deg_lon_ * meters_per_deg_lon_)));
    const int lo = std::max(cx - rx - x0_, 0);
    const int hi = std::min(cx + rx - x0_, nx_ - 1);
    if (lo > hi) continue;
    // Row-major CSR: cells lo..hi of one row are one contiguous id span.
    const size_t base = static_cast<size_t>(row) * nx_;
    const roadnet::EdgeId* id = cell_edges_.data() + cell_start_[base + lo];
    const roadnet::EdgeId* end = cell_edges_.data() + cell_start_[base + hi + 1];
    for (; id != end; ++id) {
      const roadnet::EdgeId e = *id;
      const Segment& s = segs_[static_cast<size_t>(e)];
      const double dlat_deg =
          std::max({std::min(s.a.lat, s.b.lat) - p.lat,
                    p.lat - std::max(s.a.lat, s.b.lat), 0.0});
      const double dlon_deg =
          std::max({std::min(s.a.lon, s.b.lon) - p.lon,
                    p.lon - std::max(s.a.lon, s.b.lon), 0.0});
      const double ddy = dlat_deg * kMetersPerDegLat;
      const double ddx = dlon_deg * meters_per_deg_lon_;
      if (ddy * ddy + ddx * ddx > screen_sq) continue;
      // An edge spanning several visited cells passes the prescreen once
      // per cell; the survivors so far are few, so a linear scan dedups.
      // Survivors beyond the radius stay in `out` until the loop ends, so
      // each distinct edge's exact distance is computed once.
      bool seen = false;
      for (const EdgeCandidate& c : *out) {
        if (c.edge == e) {
          seen = true;
          break;
        }
      }
      if (seen) continue;
      out->push_back({e, roadnet::PointToSegmentMeters(p, s.a, s.b)});
    }
  }
  std::erase_if(*out, [radius_m](const EdgeCandidate& c) {
    return !(c.distance_m <= radius_m);
  });
  // (distance, edge id) is a total order over distinct edges, so the result
  // sequence — including which candidates survive the cap — is fully
  // deterministic and independent of the visit order above.
  std::sort(out->begin(), out->end(), ByDistanceThenEdge);
  if (out->size() > max_candidates) out->resize(max_candidates);
}

std::vector<EdgeCandidate> SpatialIndex::QueryReference(
    const roadnet::LatLon& p, double radius_m, size_t max_candidates) const {
  // Seed-era query, kept as the reference kernel's cost model: scan the
  // full (2r+1)^2 cell square, dedup through a hash set, and take the exact
  // distance of every edge touched. Only the final comparator departs from
  // the seed (total order on (distance, edge id) instead of distance alone)
  // so both kernels share one pinned tie order.
  const int rx = static_cast<int>(
                     std::ceil(radius_m / kMetersPerDegLat / cell_deg_lat_)) +
                 1;
  const int cx = CellX(p.lon);
  const int cy = CellY(p.lat);
  std::unordered_set<roadnet::EdgeId> seen;
  std::vector<EdgeCandidate> out;
  for (int dx = -rx; dx <= rx; ++dx) {
    for (int dy = -rx; dy <= rx; ++dy) {
      for (roadnet::EdgeId e : Cell(cx + dx, cy + dy)) {
        if (!seen.insert(e).second) continue;
        const auto& edge = net_->edge(e);
        const double d = roadnet::PointToSegmentMeters(
            p, net_->vertex(edge.from).pos, net_->vertex(edge.to).pos);
        if (d <= radius_m) out.push_back({e, d});
      }
    }
  }
  std::sort(out.begin(), out.end(), ByDistanceThenEdge);
  if (out.size() > max_candidates) out.resize(max_candidates);
  return out;
}

}  // namespace rl4oasd::mapmatch
