// Map-matching hot-path bench: the Table V "MapMatch" stage in isolation.
// Times the seed-era reference kernel against the fast kernel over the same
// sampled GPS workload (plus a gap-heavy variant), sweeps MatchBatch worker
// counts, and measures streaming per-point cost twice: one trajectory at a
// time (warm per-vehicle state), and interleaved — many live streams fed
// round-robin, one fix each per turn, the shape of a fleet service, where
// every fix lands on a cold stream. Every timed comparison doubles as an
// equivalence check — any divergence between reference, fast, and streaming
// output fails the bench with a nonzero exit, so the ctest smoke
// registration guards the exactness contract too.
//
// Flags:
//   --tiny         small workload (seconds; registered with ctest)
//   --json <path>  machine-readable results — CI uploads BENCH_mapmatch.json
//   --threads <n>  max worker count for the MatchBatch sweep (default 8)
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "mapmatch/hmm_matcher.h"
#include "mapmatch/streaming_matcher.h"
#include "traj/gps_sampler.h"

using namespace rl4oasd;

namespace {

struct Workload {
  std::string name;
  std::vector<traj::RawTrajectory> raws;
  size_t points = 0;
};

Workload SampleWorkload(const bench::CityData& city, const std::string& name,
                        size_t count, double dropout, uint64_t seed) {
  traj::GpsSamplerConfig gps;
  gps.dropout_prob = dropout;
  traj::GpsSampler sampler(&city.net, gps, seed);
  Workload w;
  w.name = name;
  for (size_t i = 0; i < std::min(count, city.train.size()); ++i) {
    auto raw = sampler.Sample(city.train[i].traj);
    if (raw.points.size() < 3) continue;
    w.points += raw.points.size();
    w.raws.push_back(std::move(raw));
  }
  return w;
}

bool SameResult(const Result<traj::MapMatchedTrajectory>& a,
                const Result<traj::MapMatchedTrajectory>& b) {
  if (a.ok() != b.ok()) return false;
  if (!a.ok()) return a.status().code() == b.status().code();
  return a->edges == b->edges && a->start_time == b->start_time &&
         a->id == b->id;
}

struct StageResult {
  std::string workload;
  size_t trajs = 0;
  size_t points = 0;
  double reference_s = 0.0;
  double fast_s = 0.0;
  double streaming_s = 0.0;
  size_t streams = 0;  // live streams of the interleaved row
  size_t interleaved_points = 0;
  double interleaved_s = 0.0;
  std::vector<std::pair<int, double>> batch;  // (threads, seconds)
  bool equal = true;
};

/// Interleaved streaming: `streams` live StreamingMatchers fed round-robin,
/// one fix each per turn. Stream k (k < max(trajs, streams)) replays
/// trajectory k % trajs; a slot whose trajectory ends is Finish()ed and
/// refilled with the next unstarted stream. Compares every stream's Finish()
/// with batch Match() of its trajectory.
void RunInterleaved(const mapmatch::HmmMapMatcher& matcher, const Workload& w,
                    const std::vector<Result<traj::MapMatchedTrajectory>>& fast,
                    size_t streams, StageResult* r) {
  const size_t n = w.raws.size();
  const size_t total = std::max(n, streams);
  struct Slot {
    mapmatch::StreamingMatcher matcher;
    size_t stream = 0;
    size_t pos = 0;
  };
  std::vector<Slot> slots;
  slots.reserve(std::min(streams, total));
  size_t next = 0;
  for (; next < std::min(streams, total); ++next) {
    slots.push_back({mapmatch::StreamingMatcher(&matcher), next, 0});
  }
  std::vector<Result<traj::MapMatchedTrajectory>> finished;
  finished.reserve(total);
  for (size_t k = 0; k < total; ++k) {
    finished.emplace_back(Status::Internal("stream not finished"));
  }
  r->streams = slots.size();
  r->interleaved_points = 0;
  Stopwatch sw;
  while (!slots.empty()) {
    for (size_t i = 0; i < slots.size();) {
      Slot& s = slots[i];
      const traj::RawTrajectory& raw = w.raws[s.stream % n];
      if (s.pos == 0) s.matcher.Reset(raw.id);
      s.matcher.MatchPoint(raw.points[s.pos]);
      ++r->interleaved_points;
      if (++s.pos < raw.points.size()) {
        ++i;
        continue;
      }
      finished[s.stream] = s.matcher.Finish();
      if (next < total) {
        s.stream = next++;
        s.pos = 0;
        ++i;
      } else {
        slots[i] = std::move(slots.back());
        slots.pop_back();
      }
    }
  }
  r->interleaved_s = sw.ElapsedSeconds();
  for (size_t k = 0; k < total; ++k) {
    if (!SameResult(finished[k], fast[k % n])) {
      std::fprintf(stderr, "MISMATCH interleaved streaming vs fast: %s stream %zu\n",
                   w.name.c_str(), k);
      r->equal = false;
    }
  }
}

StageResult RunWorkload(const mapmatch::HmmMapMatcher& matcher,
                        const Workload& w, int max_threads, size_t streams) {
  StageResult r;
  r.workload = w.name;
  r.trajs = w.raws.size();
  r.points = w.points;

  // Reference kernel (the seed matcher's cost model).
  std::vector<Result<traj::MapMatchedTrajectory>> ref;
  ref.reserve(w.raws.size());
  Stopwatch ref_sw;
  for (const auto& raw : w.raws) ref.push_back(matcher.MatchReference(raw));
  r.reference_s = ref_sw.ElapsedSeconds();

  // Fast kernel, single thread, scratch reused across calls.
  std::vector<Result<traj::MapMatchedTrajectory>> fast;
  fast.reserve(w.raws.size());
  mapmatch::HmmMapMatcher::Scratch scratch;
  Stopwatch fast_sw;
  for (const auto& raw : w.raws) fast.push_back(matcher.Match(raw, &scratch));
  r.fast_s = fast_sw.ElapsedSeconds();
  for (size_t i = 0; i < w.raws.size(); ++i) {
    if (!SameResult(ref[i], fast[i])) {
      std::fprintf(stderr, "MISMATCH fast vs reference: %s traj %zu\n",
                   w.name.c_str(), i);
      r.equal = false;
    }
  }

  // Batch sweep: 1, 2, 4, ... up to max_threads.
  for (int t = 1; t <= max_threads; t *= 2) {
    Stopwatch sw;
    auto batch = matcher.MatchBatch(w.raws, t);
    r.batch.emplace_back(t, sw.ElapsedSeconds());
    for (size_t i = 0; i < w.raws.size(); ++i) {
      if (!SameResult(batch[i], fast[i])) {
        std::fprintf(stderr, "MISMATCH batch(threads=%d) vs fast: %s traj %zu\n",
                     t, w.name.c_str(), i);
        r.equal = false;
      }
    }
  }

  // Streaming: per-point feeding plus one Finish per trajectory.
  mapmatch::StreamingMatcher stream(&matcher);
  std::vector<Result<traj::MapMatchedTrajectory>> streamed;
  streamed.reserve(w.raws.size());
  Stopwatch stream_sw;
  for (const auto& raw : w.raws) {
    stream.Reset(raw.id);
    for (const auto& pt : raw.points) stream.MatchPoint(pt);
    streamed.push_back(stream.Finish());
  }
  r.streaming_s = stream_sw.ElapsedSeconds();
  for (size_t i = 0; i < w.raws.size(); ++i) {
    if (!SameResult(streamed[i], fast[i])) {
      std::fprintf(stderr, "MISMATCH streaming vs fast: %s traj %zu\n",
                   w.name.c_str(), i);
      r.equal = false;
    }
  }
  RunInterleaved(matcher, w, fast, streams, &r);
  return r;
}

void PrintStage(const StageResult& r) {
  std::printf("--- workload %-10s (%zu trajs, %zu points) ---\n",
              r.workload.c_str(), r.trajs, r.points);
  std::printf("%-28s %10.3f s  (%8.1f traj/s)\n", "reference (seed kernel)",
              r.reference_s, r.trajs / r.reference_s);
  std::printf("%-28s %10.3f s  (%8.1f traj/s)  speedup %.2fx\n",
              "fast (1 thread)", r.fast_s, r.trajs / r.fast_s,
              r.reference_s / r.fast_s);
  for (const auto& [threads, secs] : r.batch) {
    std::printf("%-21s %2dT %10.3f s  (%8.1f traj/s)  speedup %.2fx\n",
                "batch", threads, secs, r.trajs / secs, r.reference_s / secs);
  }
  std::printf("%-28s %10.3f s  (%8.2f us/point)\n", "streaming",
              r.streaming_s, 1e6 * r.streaming_s / r.points);
  char label[64];
  std::snprintf(label, sizeof label, "interleaved (%zu streams)", r.streams);
  std::printf("%-28s %10.3f s  (%8.2f us/point)\n", label, r.interleaved_s,
              1e6 * r.interleaved_s / r.interleaved_points);
  std::printf("%-28s %s\n\n", "outputs identical",
              r.equal ? "yes" : "NO (FAILURE)");
}

void WriteJson(const std::string& path, const std::vector<StageResult>& rows) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"mapmatch\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const StageResult& r = rows[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"trajs\": %zu, \"points\": %zu, "
                 "\"reference_s\": %.4f, \"fast_s\": %.4f, \"speedup\": %.2f, "
                 "\"streaming_s\": %.4f, \"streams\": %zu, "
                 "\"interleaved_points\": %zu, \"interleaved_s\": %.4f, "
                 "\"equal\": %s, \"batch\": [",
                 r.workload.c_str(), r.trajs, r.points, r.reference_s,
                 r.fast_s, r.reference_s / r.fast_s, r.streaming_s, r.streams,
                 r.interleaved_points, r.interleaved_s,
                 r.equal ? "true" : "false");
    for (size_t b = 0; b < r.batch.size(); ++b) {
      std::fprintf(f, "{\"threads\": %d, \"seconds\": %.4f}%s",
                   r.batch[b].first, r.batch[b].second,
                   b + 1 < r.batch.size() ? ", " : "");
    }
    std::fprintf(f, "]}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("bench_mapmatch",
                "Table V map-matching stage: reference vs fast kernel");
  flags.AddBool("tiny", false, "small workload for ctest");
  flags.AddString("json", "", "write machine-readable results to this path");
  flags.AddInt("threads", 8, "max worker count for the MatchBatch sweep");
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.message().c_str());
    return 1;
  }
  if (flags.help_requested()) return 0;
  const bool tiny = flags.GetBool("tiny");
  const int max_threads = static_cast<int>(flags.GetInt("threads"));
  const size_t count = tiny ? 120 : 600;
  // Live streams of the interleaved row: the full run matches gps_fleet's
  // 1,000 live vehicles per client.
  const size_t streams = tiny ? 100 : 1000;

  std::printf("=== Map matching: Table V stage attribution ===\n\n");
  auto city = bench::MakeChengduLike(/*num_pairs=*/tiny ? 12 : 40, /*seed=*/12);
  mapmatch::HmmMapMatcher matcher(&city.net);

  // "clean" is the Table V preprocessing workload (continuous GPS); "gappy"
  // adds 20% fix dropout so segment restarts and gap policies are on the
  // timed and checked path as well.
  std::vector<StageResult> rows;
  rows.push_back(RunWorkload(
      matcher, SampleWorkload(city, "clean", count, 0.0, 5), max_threads,
      streams));
  rows.push_back(RunWorkload(matcher,
                             SampleWorkload(city, "gappy", count / 2, 0.2, 6),
                             max_threads, streams));
  for (const auto& r : rows) PrintStage(r);

  if (!flags.GetString("json").empty()) {
    WriteJson(flags.GetString("json"), rows);
  }
  for (const auto& r : rows) {
    if (!r.equal) return 1;  // exactness contract violated
  }
  return 0;
}
