// Shared fixtures for the test suite: a tiny grid city, a small generated
// dataset, the road network of the paper's Figure 1 worked example, and
// helpers for corrupting CRC32-protected files in place, plus a freshness
// check for the parameters' k-major weight mirrors.
#pragma once

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/binary.h"
#include "roadnet/grid_city.h"
#include "roadnet/road_network.h"
#include "traj/dataset.h"
#include "traj/generator.h"

namespace rl4oasd::testing {

inline std::string ReadFileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), {});
}

inline void WriteFileBytes(const std::string& path,
                           const std::string& content) {
  std::ofstream f(path, std::ios::binary);
  f.write(content.data(), static_cast<std::streamsize>(content.size()));
}

/// Overwrites `count` payload bytes at `offset` (coordinates into the
/// CRC-stripped payload) and re-appends a *valid* CRC32 footer, so the
/// parser itself — not the integrity check — must reject the lie. Returns
/// false when the file is too small to hold the patch.
inline bool PatchPayloadWithValidCrc(const std::string& path, size_t offset,
                                     const void* bytes, size_t count) {
  std::string content = ReadFileBytes(path);
  if (content.size() < 4 + offset + count) return false;
  content.resize(content.size() - 4);  // strip the stale CRC
  std::memcpy(content.data() + offset, bytes, count);
  const uint32_t crc = Crc32(content.data(), content.size());
  for (int i = 0; i < 4; ++i) {
    content.push_back(static_cast<char>((crc >> (8 * i)) & 0xFFu));
  }
  WriteFileBytes(path, content);
  return true;
}

/// A small synthetic city for fast tests (~380 directed edges).
inline roadnet::RoadNetwork SmallGrid(uint64_t seed = 7) {
  roadnet::GridCityConfig cfg;
  cfg.rows = 10;
  cfg.cols = 10;
  cfg.arterial_every = 3;
  cfg.removal_prob = 0.0;  // keep the grid fully connected for tests
  cfg.seed = seed;
  return roadnet::BuildGridCity(cfg);
}

/// A small generated dataset over `net` (a few SD pairs).
inline traj::Dataset SmallDataset(const roadnet::RoadNetwork& net,
                                  int pairs = 6, double anomaly_ratio = 0.1,
                                  uint64_t seed = 99) {
  traj::GeneratorConfig cfg;
  cfg.num_sd_pairs = pairs;
  cfg.min_trajs_per_pair = 50;
  cfg.max_trajs_per_pair = 120;
  cfg.anomaly_ratio = anomaly_ratio;
  cfg.min_pair_dist_m = 800;
  cfg.max_pair_dist_m = 2500;
  cfg.min_route_edges = 8;
  cfg.seed = seed;
  traj::TrajectoryGenerator gen(&net, cfg);
  return gen.Generate();
}

/// The Figure 1 worked example of the paper: 10 trajectories between the
/// same SD pair — 5 along route T1, 4 along T2, 1 along the anomalous T3.
/// Edge ids are exposed by the paper's names (e1..e15).
struct Figure1Example {
  roadnet::RoadNetwork net;
  std::map<std::string, roadnet::EdgeId> e;  // "e1" .. "e15"
  std::vector<traj::EdgeId> t1, t2, t3;
  traj::Dataset dataset;
};

inline Figure1Example MakeFigure1Example() {
  Figure1Example ex;
  auto& net = ex.net;
  // Vertices along the three routes.
  //   T1: v0 -e1-> v1 -e3-> v2 -e5-> v3 -e6-> v4 -e10-> v5
  //   T2: v0 -e1-> v1 -e2-> v6 -e4-> v7 -e7-> v4 -e10-> v5
  //   T3: ... v7 -e11-> v8 -e12-> v9 -e13-> v10 -e14-> v11 -e15-> v4 -e10->
  std::vector<roadnet::VertexId> v;
  for (int i = 0; i < 12; ++i) {
    v.push_back(net.AddVertex({30.0 + 0.001 * i, 104.0 + 0.0005 * i}));
  }
  auto add = [&](const std::string& name, int a, int b) {
    ex.e[name] = net.AddEdge(v[a], v[b]);
  };
  add("e1", 0, 1);
  add("e2", 1, 6);
  add("e3", 1, 2);
  add("e4", 6, 7);
  add("e5", 2, 3);
  add("e6", 3, 4);
  add("e7", 7, 4);
  add("e10", 4, 5);
  add("e11", 7, 8);
  add("e12", 8, 9);
  add("e13", 9, 10);
  add("e14", 10, 11);
  add("e15", 11, 4);
  net.Build();

  ex.t1 = {ex.e["e1"], ex.e["e3"], ex.e["e5"], ex.e["e6"], ex.e["e10"]};
  ex.t2 = {ex.e["e1"], ex.e["e2"], ex.e["e4"], ex.e["e7"], ex.e["e10"]};
  ex.t3 = {ex.e["e1"], ex.e["e2"], ex.e["e4"], ex.e["e11"], ex.e["e12"],
           ex.e["e13"], ex.e["e14"], ex.e["e15"], ex.e["e10"]};

  int64_t id = 0;
  auto add_traj = [&](const std::vector<traj::EdgeId>& route, int count,
                      std::vector<uint8_t> labels) {
    for (int i = 0; i < count; ++i) {
      traj::LabeledTrajectory lt;
      lt.traj.id = id++;
      lt.traj.start_time = 9 * 3600.0 + i * 60.0;  // all in the 9:00 slot
      lt.traj.edges = route;
      lt.labels = std::move(labels);
      labels = lt.labels;
      ex.dataset.Add(std::move(lt));
    }
  };
  add_traj(ex.t1, 5, std::vector<uint8_t>(ex.t1.size(), 0));
  add_traj(ex.t2, 4, std::vector<uint8_t>(ex.t2.size(), 0));
  add_traj(ex.t3, 1, {0, 0, 0, 1, 1, 1, 1, 1, 0});
  return ex;
}

}  // namespace rl4oasd::testing
