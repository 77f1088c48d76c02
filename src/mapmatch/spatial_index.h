// Uniform-grid spatial index over road segments, used to find candidate
// edges near a GPS fix in O(1) expected time. Queries are exact (identical
// candidate sets to a brute-force scan over all edges) and deterministic:
// results are ordered by (distance, edge id), a total order, so neither the
// cell iteration order nor the order in which edges are first seen can leak
// into downstream tie-breaking — the map matcher's Viterbi tie-breaks are
// pinned to this ordering (see docs/ARCHITECTURE.md, "Map matching").
//
// Layout: the grid is a dense row-major CSR over the cell extent of the
// network (one offsets array, one edge-id array; a run of cells in one row
// is one contiguous id span), and each edge's segment endpoints sit in one
// flat array indexed by edge id, so a query reads neither a hash table nor
// the road network.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "roadnet/road_network.h"

namespace rl4oasd::mapmatch {

/// A candidate edge near a query point.
struct EdgeCandidate {
  roadnet::EdgeId edge = roadnet::kInvalidEdge;
  double distance_m = 0.0;  // point-to-segment distance
};

/// Buckets edges by the grid cells their bounding boxes overlap. Immutable
/// after construction, so any number of threads may query one index.
class SpatialIndex {
 public:
  /// Builds the index with the given cell size (meters).
  explicit SpatialIndex(const roadnet::RoadNetwork* net,
                        double cell_size_m = 250.0);

  /// Returns up to `max_candidates` edges within `radius_m` of `p`, ordered
  /// by (distance, edge id). Convenience wrapper over QueryInto.
  std::vector<EdgeCandidate> Query(const roadnet::LatLon& p, double radius_m,
                                   size_t max_candidates = 8) const;

  /// Same results as Query, into `out` (cleared first). Allocation-free
  /// once `out` has grown to the largest prescreened set.
  void QueryInto(const roadnet::LatLon& p, double radius_m,
                 size_t max_candidates, std::vector<EdgeCandidate>* out) const;

  /// The seed-era query, preserved as the reference cost model for
  /// bench_mapmatch: full (2r+1)^2 cell square, hash-set dedup, exact
  /// distance (through the road network) for every touched edge, fresh
  /// allocations per call. It reads the same cell grid as QueryInto and
  /// returns the same candidates — the only departure from the seed code is
  /// the final (distance, edge id) sort, which pins the tie order both
  /// kernels share (the seed's distance-only unstable sort left edge order
  /// at equal distance unspecified).
  std::vector<EdgeCandidate> QueryReference(const roadnet::LatLon& p,
                                            double radius_m,
                                            size_t max_candidates = 8) const;

 private:
  struct Segment {
    roadnet::LatLon a;  // position of the edge's `from` vertex
    roadnet::LatLon b;  // position of the edge's `to` vertex
  };

  int CellX(double lon) const;
  int CellY(double lat) const;
  /// Edge ids registered in cell (cx, cy), ascending; empty outside the
  /// grid's extent.
  std::span<const roadnet::EdgeId> Cell(int cx, int cy) const;

  const roadnet::RoadNetwork* net_;
  double cell_deg_lat_;
  double cell_deg_lon_;
  double meters_per_deg_lon_;
  // Cell extent: cells [x0_, x0_ + nx_) x [y0_, y0_ + ny_). Cell (cx, cy)
  // holds cell_edges_[cell_start_[i] .. cell_start_[i + 1]) with
  // i = (cy - y0_) * nx_ + (cx - x0_); each list is ascending (edges are
  // inserted in id order at build time).
  int x0_ = 0;
  int y0_ = 0;
  int nx_ = 0;
  int ny_ = 0;
  std::vector<uint32_t> cell_start_;
  std::vector<roadnet::EdgeId> cell_edges_;
  // Per-edge segment endpoints, indexed by edge id. They serve both the
  // query prescreen (the segment's bounding box, whose distance to the
  // point lower-bounds the segment distance) and the exact distance.
  std::vector<Segment> segs_;
};

}  // namespace rl4oasd::mapmatch
