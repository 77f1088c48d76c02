#include "traj/gps_sampler.h"

#include <cmath>

namespace rl4oasd::traj {

namespace {
constexpr double kMetersPerDegLat = 111320.0;
}

GpsSampler::GpsSampler(const roadnet::RoadNetwork* net,
                       GpsSamplerConfig config, uint64_t seed)
    : net_(net), config_(config), rng_(seed) {}

RawTrajectory GpsSampler::Sample(const MapMatchedTrajectory& traj) {
  RawTrajectory raw;
  raw.id = traj.id;
  if (traj.edges.empty()) return raw;

  const double speed_factor =
      rng_.Uniform(config_.speed_factor_min, config_.speed_factor_max);

  double t = traj.start_time;
  double next_sample = t;
  // Drive each edge from its start vertex to its end vertex.
  for (EdgeId e : traj.edges) {
    const auto& edge = net_->edge(e);
    const auto& a = net_->vertex(edge.from).pos;
    const auto& b = net_->vertex(edge.to).pos;
    const double speed = edge.speed_limit_mps * speed_factor;
    const double duration = edge.length_m / std::max(speed, 0.1);
    const double t_end = t + duration;
    while (next_sample <= t_end) {
      const double frac = duration > 0.0 ? (next_sample - t) / duration : 0.0;
      roadnet::LatLon p = roadnet::Lerp(a, b, frac);
      // Add isotropic Gaussian noise in a local meter frame.
      const double meters_per_deg_lon =
          kMetersPerDegLat * std::cos(p.lat * 3.14159265358979 / 180.0);
      p.lat += rng_.Gaussian(0.0, config_.noise_sigma_m) / kMetersPerDegLat;
      p.lon += rng_.Gaussian(0.0, config_.noise_sigma_m) / meters_per_deg_lon;
      // Only draw for dropout when enabled, so dropout_prob == 0 leaves the
      // RNG stream (and thus every seeded dataset) unchanged.
      const bool dropped = config_.dropout_prob > 0.0 &&
                           rng_.Uniform(0.0, 1.0) < config_.dropout_prob;
      if (!dropped) raw.points.push_back(RawPoint{p, next_sample});
      next_sample +=
          rng_.Uniform(config_.min_interval_s, config_.max_interval_s);
    }
    t = t_end;
  }
  // Drop the push_back growth slack (~40% of the points on average): callers
  // keep whole corpora of raw traces resident, e.g. a service's training
  // set next to its live fleet.
  raw.points.shrink_to_fit();
  return raw;
}

}  // namespace rl4oasd::traj
