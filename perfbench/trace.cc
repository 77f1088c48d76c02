// The traced runs: the same inputs as the timed runs, replayed with a span
// around every call into a layer, reported as per-layer metrics.
#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "workloads.h"

namespace perfbench {

namespace serve = rl::serve;
namespace traj = rl::traj;

const char* const kSpanNames[kNumSpanNames] = {
    "bench.fix",          "serve.fleet.feed",      "serve.fleet.start_trip",
    "serve.fleet.end_trip", "mapmatch.match_point", "mapmatch.finish",
    "serve.ingest.submit", "serve.guard.check",    "core.preprocess.nrf",
    "core.rsrnet.step",   "core.detector.rnel",    "core.asdnet.policy",
    "core.detector.run_tracker",
};

Tracer::Tracer() {
  std::vector<uint32_t> d;
  for (int i = 0; i < 1001; ++i) {
    const int64_t a = NowNs();
    d.push_back(static_cast<uint32_t>(NowNs() - a));
  }
  clock_ns_ = static_cast<int64_t>(Quantile(&d, 0.5));
}

int Tracer::Begin(SpanName name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.fix = fix_;
  s.parent = open_.empty() ? -1 : open_.back();
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(s);
  open_.push_back(id);
  spans_.back().start = NowNs();
  return id;
}

void Tracer::End(int span) {
  if (span < 0) return;
  spans_[static_cast<size_t>(span)].end = NowNs();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void Tracer::Replay(SpanName name, int64_t start, int64_t end, int parent) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.fix = fix_;
  s.parent = parent;
  s.start = start;
  s.end = end;
  s.replay = true;
  spans_.push_back(s);
}

std::array<Tracer::Totals, kNumSpanNames> Tracer::Summarize() const {
  std::array<Totals, kNumSpanNames> t;
  // Each span's interval holds one clock read of its own; net it out.
  auto net = [&](const Span& s) {
    return std::max<int64_t>(0, s.end - s.start - clock_ns_);
  };
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (!s.replay && s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += net(s);
    }
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& x = t[s.name];
    const int64_t d = net(s);
    ++x.calls;
    x.total_ns += d;
    x.self_ns += d - child_ns[i];
    x.durations.push_back(static_cast<uint32_t>(std::clamp<int64_t>(d, 0, UINT32_MAX)));
  }
  return t;
}

bool Tracer::Dump(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tparent\tfix\tstart_ns\tend_ns\treplay\n");
  const int64_t base = spans_.empty() ? 0 : spans_.front().start;
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%d\t%lld\t%lld\t%lld\t%d\n", kSpanNames[s.name],
                 s.parent, static_cast<long long>(s.fix),
                 static_cast<long long>(s.start - base),
                 static_cast<long long>(s.end - base), s.replay ? 1 : 0);
  }
  return std::fclose(f) == 0;
}

LayerReplay::LayerReplay(const rl::core::Rl4Oasd* model,
                         serve::IngestGuardConfig guard, Tracer* tracer)
    : model_(model), guard_(guard, model->network()), tracer_(tracer) {}

void LayerReplay::StartTrip(int64_t vid, traj::SdPair sd, double start_time) {
  const auto& dc = model_->config().detector;
  Shadow s(model_->rsrnet().stream_state_size(),
           dc.use_dl ? dc.delay_d : 0);
  s.sd = sd;
  s.start_time = start_time;
  s.guard.mono_ts = start_time;
  shadows_.insert_or_assign(vid, std::move(s));
}

int LayerReplay::Feed(int64_t vid, traj::EdgeId edge, double ts, int parent) {
  const auto it = shadows_.find(vid);
  if (it == shadows_.end()) return -1;
  Shadow& s = it->second;
  // One clock read between consecutive calls: each span ends where the next
  // begins, so the replay costs one read per layer.
  int64_t t0 = NowNs();
  const auto d = guard_.Check(&s.guard, edge, ts);
  int64_t t1 = NowNs();
  tracer_->Replay(kSpanGuard, t0, t1, parent);
  if (!d.accept) return -1;
  int label = 0;
  if (s.first) {
    model_->rsrnet().StepForward(edge, 0, &s.stream, nullptr);
    t0 = t1;
    t1 = NowNs();
    tracer_->Replay(kSpanStep, t0, t1, parent);
    s.first = false;
  } else {
    const uint8_t nrf = model_->preprocessor().NormalRouteFeatureAt(
        s.sd, s.start_time, s.prev, edge);
    t0 = t1;
    t1 = NowNs();
    tracer_->Replay(kSpanNrf, t0, t1, parent);
    const rl::nn::Vec z =
        model_->rsrnet().StepForward(edge, nrf, &s.stream, nullptr);
    t0 = t1;
    t1 = NowNs();
    tracer_->Replay(kSpanStep, t0, t1, parent);
    const int det = model_->config().detector.use_rnel
                        ? rl::core::RnelDeterministicLabel(
                              *model_->network(), s.prev, s.prev_label, edge)
                        : -1;
    t0 = t1;
    t1 = NowNs();
    tracer_->Replay(kSpanRnel, t0, t1, parent);
    if (det >= 0) {
      label = det;
    } else {
      label = model_->asdnet().GreedyAction(z.data(), s.prev_label);
      t0 = t1;
      t1 = NowNs();
      tracer_->Replay(kSpanPolicy, t0, t1, parent);
    }
  }
  (void)s.tracker.Push(label);
  tracer_->Replay(kSpanRunTracker, t1, NowNs(), parent);
  s.prev = edge;
  s.prev_label = label;
  return label;
}

void TraceHooks::ReplayPending() {
  if (pending.vid < 0) return;
  replay->StartTrip(pending.vid, pending.sd, pending.start_time);
  for (size_t i = 0; i < pending.edges.size(); ++i) {
    const int label = replay->Feed(pending.vid, pending.edges[i],
                                   pending.ts[i], pending.spans[i]);
    if (label < 0 || label != pending.labels[i]) ++label_mismatches;
  }
  replay->EndTrip(pending.vid);
  pending.vid = -1;
  pending.edges.clear();
  pending.ts.clear();
  pending.spans.clear();
  pending.labels.clear();
}

namespace {

double MeanNs(const Tracer::Totals& t) {
  return t.calls > 0 ? static_cast<double>(t.total_ns) /
                           static_cast<double>(t.calls)
                     : 0.0;
}

double PctOf(const Tracer::Totals& t, double q) {
  std::vector<uint32_t> d = t.durations;
  return Quantile(&d, q);
}

double PerFix(int64_t ns, int64_t fixes) {
  return fixes > 0 ? static_cast<double>(ns) / static_cast<double>(fixes)
                   : 0.0;
}

double MeanFixNs(const ClientCtx& c) {
  const std::vector<uint32_t> all = c.fix.Pooled();
  double sum = 0.0;
  for (uint32_t x : all) sum += x;
  return all.empty() ? 0.0 : sum / static_cast<double>(all.size());
}

/// Per-layer share table of one traced per-fix time, as report notes.
void NoteShares(const char* workload, double traced_fix_ns,
                const std::vector<std::pair<std::string, double>>& parts,
                Report* report) {
  double sum = 0.0;
  for (const auto& [name, ns] : parts) {
    sum += ns;
    char line[160];
    std::snprintf(line, sizeof line, "%s share %-28s %10.1f ns/fix %6.1f%%",
                  workload, name.c_str(), ns, 100.0 * ns / traced_fix_ns);
    report->Note(line);
  }
  char line[160];
  std::snprintf(line, sizeof line,
                "%s shares sum %.1f ns/fix vs traced per-fix %.1f ns",
                workload, sum, traced_fix_ns);
  report->Note(line);
}

/// The detector and model step at micro-batch width 8, the shape ingest
/// waves have under load: 8 lanes each replaying pool trips back to back.
/// Reports ns per point of OnlineDetector::FeedBatch and of
/// RsrNet::StepForwardBatch; labels must equal the scalar reference.
void BatchReplay(const ServingWorld& w, const std::vector<RefTrip>& refs,
                 int64_t points, Report* report) {
  constexpr size_t kB = 8;
  const auto& det = w.model->detector();
  const auto& rsr = w.model->rsrnet();
  const auto& pre = w.model->preprocessor();
  struct Lane {
    std::optional<rl::core::OnlineDetector::Session> session;
    rl::core::RsrStream stream;
    size_t trip = 0;
    size_t pos = 0;
  };
  std::vector<Lane> lanes(kB);
  size_t next_trip = 0;
  auto start = [&](Lane* l) {
    l->trip = next_trip++ % w.pool.size();
    l->pos = 0;
    const auto& t = w.pool[l->trip]->traj;
    l->session.emplace(det.StartSession(t.sd(), t.start_time));
    l->stream = rl::core::RsrStream(rsr.stream_state_size());
  };
  for (auto& l : lanes) start(&l);
  std::vector<rl::core::OnlineDetector::Session*> sessions(kB);
  std::vector<rl::core::RsrStream*> streams(kB);
  std::vector<traj::EdgeId> edges(kB);
  std::vector<uint8_t> nrf(kB);
  std::vector<int> labels(kB);
  rl::nn::Matrix z;
  int64_t feed_ns = 0, step_ns = 0, done = 0, bad = 0;
  while (done < points) {
    for (size_t b = 0; b < kB; ++b) {
      Lane& l = lanes[b];
      const auto& t = w.pool[l.trip]->traj;
      sessions[b] = &*l.session;
      streams[b] = &l.stream;
      edges[b] = t.edges[l.pos];
      nrf[b] = l.pos == 0 ? 0
                          : pre.NormalRouteFeatureAt(t.sd(), t.start_time,
                                                     t.edges[l.pos - 1],
                                                     t.edges[l.pos]);
    }
    int64_t t0 = NowNs();
    det.FeedBatch(sessions, edges, labels.data());
    int64_t t1 = NowNs();
    rsr.StepForwardBatch(edges, nrf, streams, &z);
    const int64_t t2 = NowNs();
    feed_ns += t1 - t0;
    step_ns += t2 - t1;
    done += static_cast<int64_t>(kB);
    for (size_t b = 0; b < kB; ++b) {
      Lane& l = lanes[b];
      if (labels[b] != refs[l.trip].point_labels[l.pos]) ++bad;
      if (++l.pos == w.pool[l.trip]->traj.edges.size()) {
        if (l.session->Finish() != refs[l.trip].final_labels) ++bad;
        start(&l);
      }
    }
  }
  report->Attempt(done);
  if (bad > 0) report->Fail("FeedBatch(B=8) labels differ from the reference", bad);
  report->Add("core.detector.feed_batch_ns_b8", PerFix(feed_ns, done), "ns");
  report->Add("core.rsrnet.step_batch_ns_b8", PerFix(step_ns, done), "ns");
}

/// The Table V pipeline stages of a serving workload's set-up and the
/// phases of its Fit (from Fit's own fit_timings() accessor).
void ServingTrainLayers(const ServingWorld& w, Report* report) {
  const auto& ft = w.model->fit_timings();
  report->Add("mapmatch.match_batch_s", w.times.match_batch_s, "s");
  report->Add("core.preprocess.noisy_label_s", w.times.noisy_label_s, "s");
  report->Add("core.rl4oasd.fit_s", ft.total_s, "s");
  report->Add("core.rl4oasd.preprocess_s", ft.preprocess_s, "s");
  report->Add("embed.train_s", ft.embed_s, "s");
  report->Add("core.rl4oasd.pretrain_rsr_s", ft.pretrain_rsr_s, "s");
  report->Add("core.rl4oasd.pretrain_asd_s", ft.pretrain_asd_s, "s");
  report->Add("core.rl4oasd.joint_s", ft.joint_s, "s");
  char line[160];
  std::snprintf(line, sizeof line,
                "Table V pipeline %.3f s: MatchBatch %.1f%%, noisy labels "
                "%.1f%%, Fit %.1f%%; embed %.1f%% of Fit",
                w.times.total_s(),
                100.0 * w.times.match_batch_s / w.times.total_s(),
                100.0 * w.times.noisy_label_s / w.times.total_s(),
                100.0 * w.times.fit_s / w.times.total_s(),
                100.0 * ft.embed_s / ft.total_s);
  report->Note(line);
}

void FleetCounters(const serve::FleetStats& st, Report* report) {
  report->Add("serve.fleet.points_processed",
              static_cast<double>(st.points_processed), "count");
  report->Add("serve.fleet.alerts_emitted",
              static_cast<double>(st.alerts_emitted), "count");
  report->Add("serve.fleet.trips_finished",
              static_cast<double>(st.trips_finished), "count");
  report->Add("serve.fleet.trips_evicted",
              static_cast<double>(st.trips_evicted), "count");
}

/// Per-fix decomposition of the serving path from the replay spans: each
/// core layer and the guard from its replay spans; serve.fleet.residual_ns
/// is the Feed time those spans do not cover.
struct FeedDecomposition {
  std::vector<std::pair<std::string, double>> parts;  // ns per fix
  double feed_ns_per_fix = 0.0;
  double residual_ns_per_fix = 0.0;
};

FeedDecomposition DecomposeFeeds(
    const std::array<Tracer::Totals, kNumSpanNames>& t, int64_t fixes) {
  FeedDecomposition d;
  int64_t layers = 0;
  for (SpanName n : {kSpanGuard, kSpanNrf, kSpanStep, kSpanRnel, kSpanPolicy,
                     kSpanRunTracker}) {
    d.parts.emplace_back(kSpanNames[n], PerFix(t[n].total_ns, fixes));
    layers += t[n].total_ns;
  }
  d.feed_ns_per_fix = PerFix(t[kSpanFeed].total_ns, fixes);
  d.residual_ns_per_fix = PerFix(t[kSpanFeed].total_ns - layers, fixes);
  d.parts.emplace_back("serve.fleet.residual", d.residual_ns_per_fix);
  return d;
}

void ScalarLayerMetrics(const std::array<Tracer::Totals, kNumSpanNames>& t,
                        int64_t fed,
                        const FeedDecomposition& d, Report* report) {
  report->Add("core.rsrnet.step_ns", MeanNs(t[kSpanStep]), "ns");
  report->Add("core.asdnet.policy_ns", MeanNs(t[kSpanPolicy]), "ns");
  report->Add("core.asdnet.policy_share",
              fed > 0 ? static_cast<double>(t[kSpanPolicy].calls) /
                            static_cast<double>(fed)
                      : 0.0,
              "ratio");
  report->Add("core.preprocess.nrf_ns", MeanNs(t[kSpanNrf]), "ns");
  report->Add("core.detector.rnel_ns", MeanNs(t[kSpanRnel]), "ns");
  report->Add("core.detector.run_tracker_ns", MeanNs(t[kSpanRunTracker]),
              "ns");
  report->Add("serve.guard.check_ns", MeanNs(t[kSpanGuard]), "ns");
  report->Add("serve.fleet.residual_ns",
              fed > 0 ? d.residual_ns_per_fix * 1.0 : 0.0, "ns");
  report->Add("serve.fleet.start_trip_us_p50",
              PctOf(t[kSpanStartTrip], 0.5) / 1e3, "us");
  report->Add("serve.fleet.end_trip_us_p50",
              PctOf(t[kSpanEndTrip], 0.5) / 1e3, "us");
  if (d.residual_ns_per_fix < 0.0) {
    report->Note("layer replay spans exceed the Feed span: residual < 0");
  }
}

void DumpSpans(const Args& args, const std::string& part, const Tracer& tr,
               Report* report) {
  const std::string path =
      args.out_dir + "/" + args.workload + part + ".spans.tsv";
  if (tr.Dump(path)) {
    report->Note("spans: clock read " + std::to_string(tr.clock_ns()) +
                 " ns netted out of each; " + std::to_string(tr.size()) +
                 " written to " +
                 path);
  } else {
    report->Note("spans: could not write " + path);
  }
}

/// The deployment path: a chaos-degraded stream of pool trips offered
/// through Submit/SubmitEndTrip at kOpenRate to a monitor with 2 ingest
/// workers, async delivery and the guard in repair mode, gated against a
/// sync Feed replay. Reports the ingest, delivery and guard layer metrics.
void TraceIngest(const Args& args, const ServingWorld& w, Report* report) {
  OpenInputs in = MakeOpenInputs(w, args.seed);
  OpenReferences(w, &in, report);
  TraceHooks h;
  OpenResult r = RunOpenLoop(w, in, &h, report);
  const auto t = h.tracer.Summarize();
  report->Add("serve.ingest.submit_us_p50", PctOf(t[kSpanSubmit], 0.5) / 1e3,
              "us");
  report->Add("serve.ingest.submit_us_p99", PctOf(t[kSpanSubmit], 0.99) / 1e3,
              "us");
  report->Add("serve.ingest.backlog_max", static_cast<double>(h.backlog_max),
              "count");
  report->Add("serve.ingest.drain_ms", r.drain_ms, "ms");
  report->Add("serve.ingest.points_shed",
              static_cast<double>(r.stats.points_shed), "count");
  std::vector<uint32_t> wait;
  for (int64_t ns : r.queue_wait_ns) {
    wait.push_back(static_cast<uint32_t>(std::clamp<int64_t>(ns, 0, UINT32_MAX)));
  }
  report->Add("serve.delivery.queue_wait_us_p50", Quantile(&wait, 0.5) / 1e3,
              "us");
  report->Add("serve.delivery.queue_wait_us_p99", Quantile(&wait, 0.99) / 1e3,
              "us");
  report->Add("serve.delivery.alerts_delivered",
              static_cast<double>(r.stats.alerts_delivered), "count");
  const serve::FleetStats& st = r.stats;
  report->Add("serve.guard.flagged",
              static_cast<double>(st.guard_duplicates + st.guard_out_of_order +
                                  st.guard_clock_skew + st.guard_dropout_gaps +
                                  st.guard_teleports + st.guard_invalid_edges),
              "count");
  report->Add("serve.guard.repaired", static_cast<double>(st.points_repaired),
              "count");
  report->Add("serve.guard.rejected", static_cast<double>(st.points_rejected),
              "count");
  report->Add("serve.guard.quarantine_dropped",
              static_cast<double>(st.points_quarantine_dropped), "count");
  report->Add("bench.gen_late_us_p99", Quantile(&r.gen_late_ns, 0.99) / 1e3,
              "us");
  DumpSpans(args, ".ingest", h.tracer, report);
}

LoopClock TraceClock(int64_t warm_fixes, int64_t max_fixes) {
  LoopClock c;
  c.warm_fixes = warm_fixes;
  c.windows = 1;
  c.measure_start = NowNs();
  c.measure_ns = int64_t{1} << 62;
  c.end = c.measure_start + c.measure_ns;
  c.max_fixes = max_fixes;
  return c;
}

}  // namespace

// ---------------------------------------------------------------------------

void TraceEdgeFleet(const Args& args, Report* report) {
  const ServingWorld w = MakeServingWorld(args.seed);
  CheckTrainMatch(w, report);
  const EdgeFleetInputs in = MakeEdgeFleetInputs(w, args.seed);
  const std::vector<RefTrip> refs = EdgeReferences(w);
  // 20 untraced rounds spread trip ends out; the next 5 rounds are traced.
  constexpr int64_t kWarm = 20 * static_cast<int64_t>(kEdgeFleetLive);
  constexpr int64_t kFixes = kWarm + 5 * static_cast<int64_t>(kEdgeFleetLive);

  // Untraced pass: the same single-client replay with only the per-call
  // clock the timed run also has.
  double untraced_ns = 0.0;
  {
    SyncSink sink;
    serve::FleetConfig cfg;
    cfg.max_active_trips = 2 * kEdgeFleetLive;
    serve::FleetMonitor monitor(w.model.get(), cfg, &sink);
    ClientCtx ctx(1);
    EdgeFleetClient(w, in, refs, &monitor, 0, 1, TraceClock(kWarm, kFixes), &ctx);
    ClosedLoopResult r(1);
    MergeCtx(ctx, &r, report);
    untraced_ns = MeanFixNs(ctx);
  }
  TraceHooks h;
  h.replay = std::make_unique<LayerReplay>(w.model.get(),
                                           serve::IngestGuardConfig{},
                                           &h.tracer);
  SyncSink sink;
  serve::FleetConfig cfg;
  cfg.max_active_trips = 2 * kEdgeFleetLive;
  serve::FleetMonitor monitor(w.model.get(), cfg, &sink);
  ClientCtx ctx(1);
  EdgeFleetClient(w, in, refs, &monitor, 0, 1, TraceClock(kWarm, kFixes), &ctx, &h);
  ClosedLoopResult r(1);
  MergeCtx(ctx, &r, report);
  if (h.label_mismatches > 0) {
    report->Fail("layer replay labels differ from the fleet's",
                 h.label_mismatches);
  }
  const auto t = h.tracer.Summarize();
  const int64_t fed = t[kSpanFeed].calls;
  const FeedDecomposition d = DecomposeFeeds(t, fed);
  NoteShares("edge_fleet", d.feed_ns_per_fix, d.parts, report);
  ScalarLayerMetrics(t, fed, d, report);
  BatchReplay(w, refs, 200000, report);
  FleetCounters(monitor.Stats(), report);
  ServingTrainLayers(w, report);
  report->Add("bench.traced_fix_ns", d.feed_ns_per_fix, "ns");
  report->Add("bench.fixes_offered", static_cast<double>(fed), "count");
  report->Add("bench.trace_overhead_ratio",
              untraced_ns > 0 ? d.feed_ns_per_fix / untraced_ns : 0.0,
              "ratio");
  DumpSpans(args, "", h.tracer, report);
  TraceIngest(args, w, report);
}

void TraceGpsFleet(const Args& args, Report* report) {
  const ServingWorld w = MakeServingWorld(args.seed);
  CheckTrainMatch(w, report);
  const GpsInputs in = MakeGpsInputs(w, args.seed);
  const GpsRefs refs = GpsReferences(w, in);
  constexpr int64_t kFixes = 400000;

  auto run = [&](TraceHooks* h, ClientCtx* ctx) {
    SyncSink sink;
    serve::FleetConfig cfg;
    cfg.max_active_trips = 2 * kGpsLive;
    serve::FleetMonitor monitor(w.model.get(), cfg, &sink);
    tl_ctx = ctx;
    std::vector<GpsSlot> slots(kGpsLive);
    int64_t next_k = 0;
    for (auto& s : slots) {
      s.matcher =
          std::make_unique<rl::mapmatch::StreamingMatcher>(w.matcher.get());
      s.Next(&next_k, 1, in.order);
    }
    int64_t fixes = 0;
    while (fixes < kFixes) {
      for (GpsSlot& s : slots) {
        if (fixes >= kFixes) break;
        const int64_t t0 = NowNs();
        ctx->window = 0;
        ctx->due_ns = t0;
        ++ctx->attempted;
        int span = -1;
        if (h != nullptr) {
          h->tracer.set_fix(fixes);
          span = h->tracer.Begin(kSpanFix);
        }
        const bool more = GpsFixStep(w, in, refs, &monitor, &s, ctx, h);
        if (h != nullptr) h->tracer.End(span);
        ctx->fix.Add(0, NowNs() - t0);
        if (h != nullptr) h->ReplayPending();
        ++fixes;
        if (!more) s.Next(&next_k, 1, in.order);
      }
    }
    return monitor.Stats();
  };
  ClientCtx untraced(1);
  (void)run(nullptr, &untraced);
  {
    ClosedLoopResult r(1);
    MergeCtx(untraced, &r, report);
  }
  TraceHooks h;
  h.replay = std::make_unique<LayerReplay>(w.model.get(),
                                           serve::IngestGuardConfig{},
                                           &h.tracer);
  ClientCtx ctx(1);
  const serve::FleetStats st = run(&h, &ctx);
  ClosedLoopResult r(1);
  MergeCtx(ctx, &r, report);
  if (h.label_mismatches > 0) {
    report->Fail("layer replay labels differ from the fleet's",
                 h.label_mismatches);
  }
  const auto t = h.tracer.Summarize();
  const int64_t fixes = t[kSpanFix].calls;
  const double traced_fix_ns = PerFix(t[kSpanFix].total_ns, fixes);
  FeedDecomposition d = DecomposeFeeds(t, fixes);
  std::vector<std::pair<std::string, double>> parts = {
      {kSpanNames[kSpanMatchPoint], PerFix(t[kSpanMatchPoint].total_ns, fixes)},
      {kSpanNames[kSpanFinish], PerFix(t[kSpanFinish].total_ns, fixes)},
      {kSpanNames[kSpanStartTrip], PerFix(t[kSpanStartTrip].total_ns, fixes)},
      {kSpanNames[kSpanEndTrip], PerFix(t[kSpanEndTrip].total_ns, fixes)},
  };
  parts.insert(parts.end(), d.parts.begin(), d.parts.end());
  parts.emplace_back("bench.fix (loop self)",
                     PerFix(t[kSpanFix].self_ns, fixes));
  NoteShares("gps_fleet", traced_fix_ns, parts, report);
  char line[128];
  std::snprintf(line, sizeof line, "gps_fleet mapmatch share %.1f%%",
                100.0 * (parts[0].second + parts[1].second) / traced_fix_ns);
  report->Note(line);
  ScalarLayerMetrics(t, t[kSpanFeed].calls,
                     DecomposeFeeds(t, t[kSpanFeed].calls), report);
  report->Add("mapmatch.match_point_ns_p50", PctOf(t[kSpanMatchPoint], 0.5),
              "ns");
  report->Add("mapmatch.match_point_ns_p99", PctOf(t[kSpanMatchPoint], 0.99),
              "ns");
  report->Add("mapmatch.fix_kept_ratio",
              h.match_calls > 0 ? static_cast<double>(h.match_kept) /
                                      static_cast<double>(h.match_calls)
                                : 0.0,
              "ratio");
  report->Add("mapmatch.finish_us_p50", PctOf(t[kSpanFinish], 0.5) / 1e3,
              "us");
  FleetCounters(st, report);
  ServingTrainLayers(w, report);
  report->Add("bench.traced_fix_ns", traced_fix_ns, "ns");
  report->Add("bench.fixes_offered", static_cast<double>(fixes), "count");
  const double untraced_ns = MeanFixNs(untraced);
  report->Add("bench.trace_overhead_ratio",
              untraced_ns > 0 ? traced_fix_ns / untraced_ns : 0.0, "ratio");
  DumpSpans(args, "", h.tracer, report);
}

}  // namespace perfbench
