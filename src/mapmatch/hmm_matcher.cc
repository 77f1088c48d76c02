#include "mapmatch/hmm_matcher.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <thread>
#include <unordered_map>
#include <utility>

#include "roadnet/geometry.h"
#include "roadnet/shortest_path.h"

namespace rl4oasd::mapmatch {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// The seed-era bounded Dijkstra: a fresh hash map per search. Kept verbatim
/// as the cost model MatchReference() preserves — the fast kernel's
/// EdgeDijkstra must produce the same distances (both are exact bounded
/// Dijkstras over identical relaxations, so per-path float sums agree
/// bit-for-bit and the min over paths is order-independent).
std::unordered_map<roadnet::EdgeId, double> BoundedEdgeDistances(
    const roadnet::RoadNetwork& net, roadnet::EdgeId src, double max_dist_m) {
  std::unordered_map<roadnet::EdgeId, double> dist;
  using Entry = std::pair<double, roadnet::EdgeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  dist[src] = 0.0;
  pq.push({0.0, src});
  while (!pq.empty()) {
    auto [d, e] = pq.top();
    pq.pop();
    auto it = dist.find(e);
    if (it != dist.end() && d > it->second) continue;
    for (roadnet::EdgeId next : net.NextEdges(e)) {
      const double nd = d + net.edge(next).length_m;
      if (nd > max_dist_m) continue;
      auto [nit, inserted] = dist.try_emplace(next, nd);
      if (!inserted && nit->second <= nd) continue;
      nit->second = nd;
      pq.push({nd, next});
    }
  }
  return dist;
}

double LogEmission(double d, double sigma) {
  return -0.5 * (d / sigma) * (d / sigma);
}

/// Layers ahead of the backtrack cursor whose nodes Decode prefetches.
constexpr size_t kBacktrackPrefetch = 8;

/// First maximum over a layer's scores — the pinned segment-end tie-break
/// (lowest candidate index in the (distance, edge id) order).
uint32_t ArgmaxLayer(const internal::Lattice& lat, size_t t) {
  const internal::Layer& ly = lat.layers[t];
  const internal::Node* node = lat.nodes.data() + ly.first;
  uint32_t best = 0;
  for (uint32_t c = 1; c < ly.count; ++c) {
    if (node[c].score > node[best].score) best = c;
  }
  return best;
}

}  // namespace

namespace internal {

bool AppendLayer(const HmmMapMatcher& matcher, const traj::RawPoint& pt,
                 size_t point_index, Kernel kernel, MatchScratch* scratch,
                 Lattice* lat) {
  const HmmConfig& cfg = matcher.config();
  const roadnet::RoadNetwork& net = *matcher.network();

  if (kernel == Kernel::kFast) {
    matcher.index().QueryInto(pt.pos, cfg.candidate_radius_m,
                              cfg.max_candidates, &scratch->qcands);
  } else {
    // The reference kernel also pays the seed query's cost model (full cell
    // square, hash-set dedup, per-call allocations); the candidates are
    // identical either way.
    scratch->qcands = matcher.index().QueryReference(
        pt.pos, cfg.candidate_radius_m, cfg.max_candidates);
  }
  if (scratch->qcands.empty()) return false;

  Layer ly;
  ly.point_index = point_index;
  ly.pos = pt.pos;
  ly.t = pt.t;
  ly.first = static_cast<uint32_t>(lat->nodes.size());
  ly.count = static_cast<uint32_t>(scratch->qcands.size());
  for (const EdgeCandidate& c : scratch->qcands) {
    lat->nodes.push_back({c.edge, -1, c.distance_m, kNegInf});
  }
  Node* node = lat->nodes.data() + ly.first;

  if (lat->layers.empty()) {
    ly.segment_start = true;
    for (uint32_t c = 0; c < ly.count; ++c) {
      node[c].score = LogEmission(node[c].distance_m, cfg.gps_sigma_m);
    }
    lat->layers.push_back(ly);
    return true;
  }

  const Layer& prev = lat->layers.back();
  const Node* node_prev = lat->nodes.data() + prev.first;
  const double gc = roadnet::ApproxDistanceMeters(prev.pos, ly.pos);
  const double beta_m = 50.0 * cfg.transition_beta;
  const double max_net = std::max(gc * cfg.max_network_detour, gc + 300.0);

  if (kernel == Kernel::kFast) {
    // Transition distances come from the precomputed table when the layer's
    // detour bound fits under it (the common case: consecutive fixes),
    // otherwise from one reusable bounded Dijkstra per previous candidate,
    // early-terminated once every current-layer candidate is settled. Both
    // sources yield the same distances: a table entry is a settled
    // EdgeDijkstra distance, a table miss or an entry beyond max_net means
    // a live search bounded by max_net would not reach the edge either.
    // node[].score doubles as the running best transition score per
    // candidate until emissions are added.
    const roadnet::EdgeDistanceTable& table = matcher.transition_table();
    const bool use_table = table.built() && max_net <= table.bound_m();
    if (!use_table) {
      scratch->targets.clear();
      for (uint32_t c = 0; c < ly.count; ++c) {
        scratch->targets.push_back(node[c].edge);
      }
      scratch->dijkstra.Attach(&net);
      scratch->dijkstra.SetTargets(scratch->targets.data(),
                                   scratch->targets.size());
    }
    for (uint32_t p = 0; p < prev.count; ++p) {
      const double score_p = node_prev[p].score;
      if (score_p == kNegInf) continue;
      // Exact dominance pruning: log_trans <= 0, so p's best possible score
      // is its own score; when even that cannot beat (strict >) the weakest
      // current best, p cannot change any candidate's score or back pointer.
      double min_best = node[0].score;
      for (uint32_t c = 1; c < ly.count; ++c) {
        min_best = std::min(min_best, node[c].score);
      }
      if (score_p <= min_best) continue;
      const roadnet::EdgeId edge_p = node_prev[p].edge;
      if (!use_table) scratch->dijkstra.Run(edge_p, max_net);
      for (uint32_t c = 0; c < ly.count; ++c) {
        const double d = use_table
                             ? table.DistanceTo(edge_p, node[c].edge)
                             : scratch->dijkstra.DistanceTo(node[c].edge);
        if (d < 0.0 || d > max_net) continue;
        const double s = score_p - std::abs(gc - d) / beta_m;
        // Strict >: ties keep the lowest p, matching the reference kernel's
        // first-max over ascending p.
        if (s > node[c].score) {
          node[c].score = s;
          node[c].back = static_cast<int32_t>(p);
        }
      }
    }
  } else {
    // Reference kernel: the seed's per-(layer, candidate) fresh-map searches
    // and candidate-outer loop order, preserved as the equivalence oracle.
    std::vector<std::unordered_map<roadnet::EdgeId, double>> netdist(
        prev.count);
    for (uint32_t p = 0; p < prev.count; ++p) {
      netdist[p] = BoundedEdgeDistances(net, node_prev[p].edge, max_net);
    }
    for (uint32_t c = 0; c < ly.count; ++c) {
      double best = kNegInf;
      int32_t best_p = -1;
      for (uint32_t p = 0; p < prev.count; ++p) {
        if (node_prev[p].score == kNegInf) continue;
        auto it = netdist[p].find(node[c].edge);
        if (it == netdist[p].end()) continue;
        const double s =
            node_prev[p].score - std::abs(gc - it->second) / beta_m;
        if (s > best) {
          best = s;
          best_p = static_cast<int32_t>(p);
        }
      }
      node[c].score = best;
      node[c].back = best_p;
    }
  }

  bool any = false;
  for (uint32_t c = 0; c < ly.count; ++c) {
    if (node[c].back >= 0) {
      any = true;
      break;
    }
  }
  if (any) {
    for (uint32_t c = 0; c < ly.count; ++c) {
      if (node[c].back >= 0) {
        node[c].score += LogEmission(node[c].distance_m, cfg.gps_sigma_m);
      } else {
        node[c].score = kNegInf;
      }
    }
  } else {
    // GPS gap: no current candidate is network-reachable from the previous
    // layer within the detour bound. Start a new Viterbi segment from
    // emission-only scores; the gap policy decides bridging at decode time.
    ly.segment_start = true;
    for (uint32_t c = 0; c < ly.count; ++c) {
      node[c].score = LogEmission(node[c].distance_m, cfg.gps_sigma_m);
      node[c].back = -1;
    }
  }
  lat->layers.push_back(ly);
  return true;
}

Result<DecodedPieces> Decode(const HmmMapMatcher& matcher, const Lattice& lat,
                             int64_t id) {
  if (lat.layers.empty()) {
    return Status::NotFound("no candidate segments near any GPS fix");
  }
  const roadnet::RoadNetwork& net = *matcher.network();
  const GapPolicy policy = matcher.config().gap_policy;
  const size_t num_layers = lat.layers.size();

  // Backtrack. Segment boundaries are explicit (Layer::segment_start), so a
  // chosen candidate in a non-starting layer always has a valid back
  // pointer; at a boundary the finished segment's end is re-anchored at the
  // previous layer's argmax (segmented Viterbi).
  std::vector<uint32_t> chosen(num_layers);
  uint32_t cur = ArgmaxLayer(lat, num_layers - 1);
  for (size_t t = num_layers; t-- > 0;) {
    // The back-pointer chase is a chain of dependent loads over a lattice
    // gone cold while the vehicle's trip ran, but the node range each step
    // lands in is known in advance: prefetch the first and last node of a
    // layer a few steps ahead (a layer is at most max_candidates 24-byte
    // nodes, a few cache lines).
    if (t >= kBacktrackPrefetch) {
      const Layer& ahead = lat.layers[t - kBacktrackPrefetch];
      __builtin_prefetch(lat.nodes.data() + ahead.first);
      __builtin_prefetch(lat.nodes.data() + ahead.first + ahead.count - 1);
    }
    chosen[t] = cur;
    if (t == 0) break;
    if (lat.layers[t].segment_start) {
      cur = ArgmaxLayer(lat, t - 1);
    } else {
      cur = static_cast<uint32_t>(lat.nodes[lat.layers[t].first + cur].back);
    }
  }

  // Assemble pieces: collapse repeats, stitch non-adjacent consecutive edges
  // with shortest paths, and split where the gap policy says so (or where a
  // boundary bridge does not exist).
  DecodedPieces out;
  std::vector<size_t> piece_fixes;
  traj::MapMatchedTrajectory piece;
  size_t fixes = 0;
  auto flush = [&]() -> Status {
    if (piece.edges.empty()) return Status::OK();
    if (!net.IsConnectedPath(piece.edges)) {
      return Status::Internal("matched trajectory is not connected");
    }
    piece_fixes.push_back(fixes);
    out.pieces.push_back(std::move(piece));
    piece = traj::MapMatchedTrajectory{};
    return Status::OK();
  };

  for (size_t t = 0; t < num_layers; ++t) {
    const Layer& ly = lat.layers[t];
    const roadnet::EdgeId e = lat.nodes[ly.first + chosen[t]].edge;
    const bool boundary = t > 0 && ly.segment_start;
    if (boundary && policy == GapPolicy::kSplit) {
      RL4_RETURN_NOT_OK(flush());
    }
    if (!piece.edges.empty()) {
      if (piece.edges.back() == e) {
        ++fixes;
        continue;
      }
      if (!net.AreConsecutive(piece.edges.back(), e)) {
        auto bridge = roadnet::ShortestPathBetweenEdges(net, piece.edges.back(), e);
        if (bridge.size() >= 2) {
          // Skip the first (already present) and last (pushed below).
          for (size_t k = 1; k + 1 < bridge.size(); ++k) {
            piece.edges.push_back(bridge[k]);
          }
        } else if (boundary) {
          // Unbridgeable gap (e.g. disconnected subgraphs): degrade to a
          // split instead of failing the whole trajectory.
          RL4_RETURN_NOT_OK(flush());
        } else {
          // Within a segment reachability was proven by the transition
          // search, so a missing bridge is a real invariant violation.
          return Status::Internal("could not stitch matched edges");
        }
      }
    }
    if (piece.edges.empty()) {
      piece.id = id;
      piece.start_time = ly.t;  // first *matched* fix of this piece
      fixes = 0;
    }
    piece.edges.push_back(e);
    ++fixes;
  }
  RL4_RETURN_NOT_OK(flush());

  for (size_t i = 1; i < piece_fixes.size(); ++i) {
    // Strict >: ties keep the earliest piece.
    if (piece_fixes[i] > piece_fixes[out.best]) out.best = i;
  }
  return out;
}

}  // namespace internal

HmmMapMatcher::HmmMapMatcher(const roadnet::RoadNetwork* net, HmmConfig config)
    : net_(net), config_(config), index_(net) {
  if (config_.transition_table_bound_m > 0.0) {
    table_.Build(*net, config_.transition_table_bound_m);
  }
}

Result<traj::MapMatchedTrajectory> HmmMapMatcher::MatchImpl(
    const traj::RawTrajectory& raw, internal::Kernel kernel,
    Scratch* scratch) const {
  if (raw.points.empty()) {
    return Status::InvalidArgument("empty raw trajectory");
  }
  internal::Lattice& lat = scratch->lattice;
  lat.Clear();
  for (size_t i = 0; i < raw.points.size(); ++i) {
    internal::AppendLayer(*this, raw.points[i], i, kernel, scratch, &lat);
  }
  RL4_ASSIGN_OR_RETURN(internal::DecodedPieces decoded,
                       internal::Decode(*this, lat, raw.id));
  return std::move(decoded.pieces[decoded.best]);
}

Result<traj::MapMatchedTrajectory> HmmMapMatcher::Match(
    const traj::RawTrajectory& raw) const {
  Scratch scratch;
  return MatchImpl(raw, internal::Kernel::kFast, &scratch);
}

Result<traj::MapMatchedTrajectory> HmmMapMatcher::Match(
    const traj::RawTrajectory& raw, Scratch* scratch) const {
  return MatchImpl(raw, internal::Kernel::kFast, scratch);
}

Result<traj::MapMatchedTrajectory> HmmMapMatcher::MatchReference(
    const traj::RawTrajectory& raw) const {
  Scratch scratch;
  return MatchImpl(raw, internal::Kernel::kReference, &scratch);
}

Result<std::vector<traj::MapMatchedTrajectory>> HmmMapMatcher::MatchSegments(
    const traj::RawTrajectory& raw, Scratch* scratch) const {
  Scratch local;
  if (scratch == nullptr) scratch = &local;
  if (raw.points.empty()) {
    return Status::InvalidArgument("empty raw trajectory");
  }
  internal::Lattice& lat = scratch->lattice;
  lat.Clear();
  for (size_t i = 0; i < raw.points.size(); ++i) {
    internal::AppendLayer(*this, raw.points[i], i, internal::Kernel::kFast,
                          scratch, &lat);
  }
  RL4_ASSIGN_OR_RETURN(internal::DecodedPieces decoded,
                       internal::Decode(*this, lat, raw.id));
  return std::move(decoded.pieces);
}

std::vector<Result<traj::MapMatchedTrajectory>> HmmMapMatcher::MatchBatch(
    const std::vector<traj::RawTrajectory>& raws, int threads) const {
  const size_t n = raws.size();
  // Result<T> has no default constructor; prefill every slot with an error
  // so workers can plain-assign into disjoint indices.
  std::vector<Result<traj::MapMatchedTrajectory>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.emplace_back(Status::Internal("batch slot not matched"));
  }
  size_t num_workers = threads < 1 ? 1 : static_cast<size_t>(threads);
  num_workers = std::min(num_workers, n == 0 ? size_t{1} : n);
  if (num_workers <= 1) {
    Scratch scratch;
    for (size_t i = 0; i < n; ++i) {
      out[i] = MatchImpl(raws[i], internal::Kernel::kFast, &scratch);
    }
    return out;
  }
  // Strided sharding; each worker owns its scratch and writes only its own
  // slots, so no synchronization is needed beyond the joins. Results are
  // keyed by input index, making output thread-count invariant.
  std::vector<std::thread> workers;
  workers.reserve(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    workers.emplace_back([this, &raws, &out, n, num_workers, w] {
      Scratch scratch;
      for (size_t i = w; i < n; i += num_workers) {
        out[i] = MatchImpl(raws[i], internal::Kernel::kFast, &scratch);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  return out;
}

}  // namespace rl4oasd::mapmatch
