// The two workloads' untimed setup, reference and timed phase, and the
// open-loop ingest run of edge_fleet's traced run. Each workload reports
// every end-to-end metric (see README.md for what each one means on each
// workload).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <utility>

#include "bench.h"
#include "mapmatch/hmm_matcher.h"
#include "mapmatch/streaming_matcher.h"
#include "serve/chaos.h"
#include "serve/fleet.h"
#include "traj/gps_sampler.h"
#include "workloads.h"

namespace perfbench {

namespace serve = rl::serve;
namespace traj = rl::traj;

thread_local ClientCtx* tl_ctx = nullptr;

void SyncSink::OnAlert(const serve::Alert& a) {
  const int64_t now = NowNs();
  ClientCtx* c = tl_ctx;
  if (c == nullptr || c->ref == nullptr || a.vehicle_id != c->vid ||
      c->next_alert >= c->ref->alerts.size()) {
    stray.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const RefAlert& r = c->ref->alerts[c->next_alert++];
  if (!(r.range == a.range) || r.position != a.position ||
      r.point != c->point) {
    ++c->mismatches;
  }
  c->alert_lag.Add(c->window, now - c->due_ns);
}

void SyncSink::OnTripEnd(int64_t vehicle_id,
                         const std::vector<uint8_t>& labels) {
  const int64_t now = NowNs();
  ClientCtx* c = tl_ctx;
  if (c == nullptr || c->ref == nullptr || vehicle_id != c->vid) {
    stray.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (labels != c->ref->final_labels ||
      c->next_alert != c->ref->alerts.size()) {
    ++c->mismatches;
  }
  c->closed = true;
  c->trip_close.Add(c->window, now - c->due_ns);
  if (c->labels_out != nullptr) *c->labels_out = labels;
}

int Window(int64_t t, int64_t measure_start, int64_t measure_ns,
           int windows) {
  if (t < measure_start || t >= measure_start + measure_ns) return -1;
  return static_cast<int>((t - measure_start) * windows / measure_ns);
}

/// Reports a timing scaled to the reference host speed, with its raw value
/// in the notes.
void AddScaled(const std::string& name, double raw, const std::string& unit,
               int64_t samples, double scale, Report* report) {
  char line[160];
  std::snprintf(line, sizeof line, "raw %-20s %14.4f %s", name.c_str(), raw,
                unit.c_str());
  report->Note(line);
  if (samples >= 0) {
    report->AddPct(name, raw * scale, unit, samples);
  } else {
    report->Add(name, raw * scale, unit);
  }
}

void ReportClosedLoop(const ClosedLoopResult& r, int64_t measure_ns,
                      int windows, Report* report) {
  std::vector<double> rates;
  for (int64_t n : r.fixes_per_window) {
    rates.push_back(static_cast<double>(n) * windows /
                    (static_cast<double>(measure_ns) / 1e9));
  }
  const double k = r.probe.Scale();
  report->Note("host probe in the timed loops: " +
               std::to_string(Median(r.probe.ns) / 1e3) + " us over " +
               std::to_string(r.probe.ns.size()) + " readings (reference " +
               std::to_string(kRefProbeNs / 1e3) + " us)");
  AddScaled("fixes_per_s", Quartile(rates, 0.75), "1/s", -1, 1.0 / k, report);
  AddScaled("fix_p50_us", r.fix.PctUs(0.50), "us", r.fix.count(), k, report);
  AddScaled("fix_p99_us", r.fix.PctUs(0.99), "us", r.fix.count(), k, report);
  AddScaled("alert_lag_p50_us", r.alert_lag.PctUs(0.50), "us",
            r.alert_lag.count(), k, report);
  AddScaled("trip_close_p50_us", r.trip_close.PctUs(0.50), "us",
            r.trip_close.count(), k, report);
}

void MergeCtx(const ClientCtx& c, ClosedLoopResult* r, Report* report) {
  r->probe.ns.insert(r->probe.ns.end(), c.probe.ns.begin(), c.probe.ns.end());
  r->fix.Merge(c.fix);
  r->alert_lag.Merge(c.alert_lag);
  r->trip_close.Merge(c.trip_close);
  if (r->fixes_per_window.size() < c.fixes_per_window.size()) {
    r->fixes_per_window.resize(c.fixes_per_window.size());
  }
  for (size_t i = 0; i < c.fixes_per_window.size(); ++i) {
    r->fixes_per_window[i] += c.fixes_per_window[i];
  }
  report->Attempt(c.attempted);
  if (c.failed > 0) report->Fail("operations failed on a client", c.failed);
  if (c.mismatches > 0) {
    report->Fail("sink output differs from the reference", c.mismatches);
  }
}

// ---------------------------------------------------------------------------
// Serving setup shared by every workload.

namespace {

double SecondsSince(int64_t t0) {
  return static_cast<double>(NowNs() - t0) / 1e9;
}

bool SameMatch(const rl::Result<traj::MapMatchedTrajectory>& a,
               const rl::Result<traj::MapMatchedTrajectory>& b) {
  if (a.ok() != b.ok()) return false;
  if (!a.ok()) return a.status().message() == b.status().message();
  return a->edges == b->edges && a->start_time == b->start_time;
}

}  // namespace

ServingWorld MakeServingWorld(uint64_t seed) {
  ServingWorld w;
  w.city = BuildCity();
  w.matcher = std::make_unique<rl::mapmatch::HmmMapMatcher>(&w.city->net);
  std::mt19937_64 rng(seed * 0x8CB92BA72F3D8DD7ull + 5);
  for (const auto& lt : w.city->train.trajs()) {
    traj::GpsSampler sampler(&w.city->net, {}, rng());
    w.train_raws.push_back(sampler.Sample(lt.traj));
  }
  int64_t t0 = NowNs();
  w.train_matched = w.matcher->MatchBatch(w.train_raws, kMatchWorkers);
  w.times.match_batch_s = SecondsSince(t0);
  t0 = NowNs();
  rl::core::Preprocessor pre(ModelConfig().preprocess);
  pre.Fit(w.city->train);
  for (const auto& lt : w.city->train.trajs()) (void)pre.NoisyLabels(lt.traj);
  w.times.noisy_label_s = SecondsSince(t0);
  w.model = std::make_unique<rl::core::Rl4Oasd>(&w.city->net, ModelConfig());
  t0 = NowNs();
  w.model->Fit(w.city->train);
  w.times.fit_s = SecondsSince(t0);
  w.pool = ServingPool(*w.city);
  return w;
}

void CheckTrainMatch(const ServingWorld& w, Report* report) {
  rl::mapmatch::HmmMapMatcher::Scratch scratch;
  int64_t bad = 0;
  for (size_t i = 0; i < w.train_raws.size(); ++i) {
    if (!SameMatch(w.train_matched[i],
                   w.matcher->Match(w.train_raws[i], &scratch))) {
      ++bad;
    }
  }
  report->Attempt(static_cast<int64_t>(w.train_raws.size()));
  if (bad > 0) report->Fail("MatchBatch differs from sequential Match", bad);
}

/// Set-up timings of a workload: each repeat's wall time and Table V
/// pipeline time, and host probe readings taken before each repeat.
struct SetupTimes {
  std::vector<double> setup_s, train_s;
  HostProbe probe;
};

void AddServingModelMetrics(const ServingWorld& w, const SetupTimes& st,
                            Report* report) {
  const double k = st.probe.Scale();
  char line[200];
  std::snprintf(line, sizeof line,
                "set-up (last of %d, raw): %.3f s = MatchBatch %.3f s + "
                "noisy labels %.3f s + Fit %.3f s + city, matcher, traces "
                "and inputs %.3f s",
                kSetupRepeats, st.setup_s.back(), w.times.match_batch_s,
                w.times.noisy_label_s, w.times.fit_s,
                st.setup_s.back() - w.times.total_s());
  report->Note(line);
  report->Note("host probe in set-up: " +
               std::to_string(Median(st.probe.ns) / 1e3) + " us over " +
               std::to_string(st.probe.ns.size()) + " readings");
  AddScaled("setup_s", Median(st.setup_s), "s", -1, k, report);
  AddScaled("train_s", Quartile(st.train_s, 0.25), "s", -1, k, report);
  report->Add("f1", TestF1(*w.model, *w.city), "ratio");
}

/// Builds the serving world and a workload's inputs `kSetupRepeats` times,
/// timing each build and its Table V pipeline; returns the last build.
template <typename MakeInputs>
auto ServingSetup(uint64_t seed, MakeInputs&& make_inputs, SetupTimes* st) {
  using Built = std::pair<ServingWorld, decltype(make_inputs(
                                            std::declval<ServingWorld&>()))>;
  std::optional<Built> out;
  for (int i = 0; i < kSetupRepeats; ++i) {
    out.reset();  // members die in reverse order: model before its city
    for (int j = 0; j < 3; ++j) st->probe.Sample();
    const int64_t start = NowNs();
    ServingWorld w = MakeServingWorld(seed);
    auto in = make_inputs(w);
    out.emplace(std::move(w), std::move(in));
    st->setup_s.push_back(SecondsSince(start));
    st->train_s.push_back(out->first.times.total_s());
  }
  for (int j = 0; j < 3; ++j) st->probe.Sample();
  return std::move(*out);
}

// ---------------------------------------------------------------------------
// edge_fleet

EdgeFleetInputs MakeEdgeFleetInputs(const ServingWorld& w, uint64_t seed) {
  EdgeFleetInputs in;
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  in.order.resize(w.pool.size());
  for (size_t i = 0; i < in.order.size(); ++i) {
    in.order[i] = static_cast<uint32_t>(i);
  }
  std::shuffle(in.order.begin(), in.order.end(), rng);
  for (const auto* lt : w.pool) in.ts.push_back(Timestamps(lt->traj, &rng));
  in.slot_order.resize(kEdgeFleetLive);
  for (size_t i = 0; i < in.slot_order.size(); ++i) {
    in.slot_order[i] = static_cast<uint32_t>(i);
  }
  std::shuffle(in.slot_order.begin(), in.slot_order.end(), rng);
  return in;
}

std::vector<RefTrip> EdgeReferences(const ServingWorld& w) {
  std::vector<RefTrip> refs;
  refs.reserve(w.pool.size());
  for (const auto* lt : w.pool) {
    refs.push_back(SessionReference(*w.model, lt->traj.sd(),
                                    lt->traj.start_time, lt->traj.edges));
  }
  return refs;
}

/// One client of the edge_fleet closed loop: round-robin over its slots,
/// one Feed per fix, EndTrip + StartTrip of the slot's next trip at trip
/// end. Instance k of this client is vehicle k, replaying pool trip
/// order[k % pool].
void EdgeFleetClient(const ServingWorld& w, const EdgeFleetInputs& in,
                     const std::vector<RefTrip>& refs,
                     serve::FleetMonitor* monitor, int client, int clients,
                     const LoopClock& clock, ClientCtx* ctx,
                     TraceHooks* hooks) {
  Tracer* tr = hooks != nullptr ? &hooks->tracer : nullptr;
  struct Slot {
    int64_t vid = 0;
    uint32_t pool = 0;
    uint32_t pos = 0;
    size_t next_alert = 0;  // this trip's next expected reference alert
  };
  tl_ctx = ctx;
  int64_t next_k = client;
  auto start_next = [&](Slot* s) {
    s->vid = next_k;
    s->pool = in.order[static_cast<size_t>(next_k) % in.order.size()];
    s->pos = 0;
    s->next_alert = 0;
    next_k += clients;
    const auto& t = w.pool[s->pool]->traj;
    ++ctx->attempted;
    const int span = tr ? tr->Begin(kSpanStartTrip) : -1;
    if (!monitor->StartTrip(s->vid, t.sd(), t.start_time).ok()) ++ctx->failed;
    if (tr) {
      tr->End(span);
      hooks->replay->StartTrip(s->vid, t.sd(), t.start_time);
    }
  };
  std::vector<Slot> slots;
  for (uint32_t s : in.slot_order) {
    if (static_cast<int>(s % static_cast<uint32_t>(clients)) != client) {
      continue;
    }
    slots.emplace_back();
    start_next(&slots.back());
  }
  for (;;) {
    for (Slot& s : slots) {
      const int64_t t0 = NowNs();
      if (t0 >= clock.end) return;
      if (clock.max_fixes > 0 && ctx->fixes >= clock.max_fixes) return;
      const bool warm = ctx->fixes < clock.warm_fixes;
      const int win = warm ? -1
                           : Window(t0, clock.measure_start, clock.measure_ns,
                                    clock.windows);
      if (tr) tr->set_enabled(!warm);
      const auto& t = w.pool[s.pool]->traj;
      const RefTrip& ref = refs[s.pool];
      ctx->vid = s.vid;
      ctx->ref = &ref;
      ctx->window = win;
      ctx->due_ns = t0;
      ctx->point = static_cast<int32_t>(s.pos);
      ctx->next_alert = s.next_alert;
      const double ts = in.ts[s.pool][s.pos];
      if (tr) tr->set_fix(ctx->fixes);
      const int span = tr ? tr->Begin(kSpanFeed) : -1;
      const auto r = monitor->Feed(s.vid, t.edges[s.pos], ts);
      const int64_t t1 = NowNs();
      if (tr) {
        tr->End(span);
        const int label = hooks->replay->Feed(s.vid, t.edges[s.pos], ts, span);
        if (!r.ok() || label != *r) ++hooks->label_mismatches;
      }
      s.next_alert = ctx->next_alert;
      ++ctx->fixes;
      ctx->fix.Add(win, t1 - t0);
      if (win >= 0) ++ctx->fixes_per_window[static_cast<size_t>(win)];
      ++ctx->attempted;
      if (!r.ok() || *r != ref.point_labels[s.pos]) ++ctx->failed;
      if (++s.pos == t.edges.size()) {
        // The client ends the trip right after its last fix, so the trip
        // close is timed from that fix's call (due_ns, window unchanged),
        // as on gps_fleet.
        ctx->point = -1;
        ctx->closed = false;
        ++ctx->attempted;
        const int espan = tr ? tr->Begin(kSpanEndTrip) : -1;
        if (!monitor->EndTrip(s.vid).ok() || !ctx->closed) ++ctx->failed;
        if (tr) {
          tr->End(espan);
          hooks->replay->EndTrip(s.vid);
        }
        start_next(&s);
      }
      if (tr == nullptr) ctx->probe.MaybeSample(t1);
    }
  }
}

LoopClock MakeClock(int seconds, double warmup_s, int windows) {
  LoopClock c;
  c.windows = windows;
  c.measure_start = NowNs() + static_cast<int64_t>(warmup_s * 1e9);
  c.measure_ns = static_cast<int64_t>(seconds) * 1000000000;
  c.end = c.measure_start + c.measure_ns;
  return c;
}

void RunEdgeFleet(const Args& args, Report* report) {
  SetupTimes setup;
  auto world = ServingSetup(
      args.seed,
      [&](const ServingWorld& w) { return MakeEdgeFleetInputs(w, args.seed); },
      &setup);
  const ServingWorld& w = world.first;
  const EdgeFleetInputs& in = world.second;
  CheckTrainMatch(w, report);
  const std::vector<RefTrip> refs = EdgeReferences(w);

  SyncSink sink;
  serve::FleetConfig cfg;
  cfg.max_active_trips = 2 * kEdgeFleetLive;
  serve::FleetMonitor monitor(w.model.get(), cfg, &sink);
  const LoopClock clock = MakeClock(args.seconds, kWarmupS, kWindows);
  std::vector<ClientCtx> ctx(kClients, ClientCtx(kWindows));
  for (auto& c : ctx) c.fix.Reserve(kReservePerClientS * args.seconds / kWindows);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      EdgeFleetClient(w, in, refs, &monitor, c, kClients, clock,
                      &ctx[static_cast<size_t>(c)]);
    });
  }
  for (auto& t : threads) t.join();
  ClosedLoopResult r(kWindows);
  for (const auto& c : ctx) MergeCtx(c, &r, report);
  if (sink.stray.load() > 0) report->Fail("stray sink callbacks", sink.stray);
  const auto st = monitor.Stats();
  if (st.trips_started != st.trips_finished + st.trips_evicted +
                              static_cast<int64_t>(monitor.ActiveTrips())) {
    report->Fail("trip conservation broken");
  }
  report->Note("edge_fleet: " + std::to_string(kClients) + " clients, " +
               std::to_string(kEdgeFleetLive) + " live trips, pool " +
               std::to_string(w.pool.size()) + " test trips, trips finished " +
               std::to_string(st.trips_finished) + ", alerts " +
               std::to_string(st.alerts_emitted));
  AddServingModelMetrics(w, setup, report);
  ReportClosedLoop(r, clock.measure_ns, kWindows, report);
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
}

// ---------------------------------------------------------------------------
// gps_fleet

GpsInputs MakeGpsInputs(const ServingWorld& w, uint64_t seed) {
  GpsInputs in;
  std::mt19937_64 rng(seed * 0xD1B54A32D192ED03ull + 7);
  in.order.resize(w.pool.size());
  for (size_t i = 0; i < in.order.size(); ++i) {
    in.order[i] = static_cast<uint32_t>(i);
  }
  std::shuffle(in.order.begin(), in.order.end(), rng);
  for (const auto* lt : w.pool) {
    traj::GpsSampler sampler(&w.city->net, {}, rng());
    in.raws.push_back(sampler.Sample(lt->traj));
  }
  return in;
}

GpsRefs GpsReferences(const ServingWorld& w, const GpsInputs& in) {
  GpsRefs refs;
  refs.match = w.matcher->MatchBatch(in.raws, kMatchWorkers);
  refs.trips.resize(in.raws.size());
  for (size_t i = 0; i < in.raws.size(); ++i) {
    const auto& m = refs.match[i];
    if (!m.ok() || m->edges.size() < 2) continue;
    refs.trips[i] = SessionReference(*w.model, w.pool[i]->traj.sd(),
                                     m->start_time, m->edges);
  }
  return refs;
}

/// The work of one raw fix on gps_fleet: MatchPoint, and at the trip's last
/// fix Finish -> StartTrip -> Feed per matched edge -> EndTrip (the
/// per-point matched-ingest path of oasd_simulate). Returns false at the
/// trip's last fix.
bool GpsFixStep(const ServingWorld& w, const GpsInputs& in,
                const GpsRefs& refs, serve::FleetMonitor* monitor,
                GpsSlot* s, ClientCtx* ctx, TraceHooks* hooks) {
  Tracer* tr = hooks != nullptr ? &hooks->tracer : nullptr;
  const traj::RawTrajectory& raw = in.raws[s->pool];
  if (s->pos == 0) s->matcher->Reset(s->vid);
  {
    const int span = tr ? tr->Begin(kSpanMatchPoint) : -1;
    const bool kept = s->matcher->MatchPoint(raw.points[s->pos]);
    if (tr) {
      tr->End(span);
      ++hooks->match_calls;
      hooks->match_kept += kept ? 1 : 0;
    }
  }
  if (++s->pos < raw.points.size()) return true;
  ++ctx->attempted;
  const int fspan = tr ? tr->Begin(kSpanFinish) : -1;
  const auto m = s->matcher->Finish();
  if (tr) tr->End(fspan);
  if (!SameMatch(m, refs.match[s->pool])) {
    ++ctx->failed;
    return false;
  }
  if (!m.ok() || m->edges.size() < 2) {
    ++ctx->unmatched;  // expected: no usable route, as batch matching finds
    return false;
  }
  const RefTrip& ref = refs.trips[s->pool];
  const traj::SdPair sd = w.pool[s->pool]->traj.sd();
  ctx->vid = s->vid;
  ctx->ref = &ref;
  ctx->next_alert = 0;
  const int sspan = tr ? tr->Begin(kSpanStartTrip) : -1;
  const bool started = monitor->StartTrip(s->vid, sd, m->start_time).ok();
  if (tr) tr->End(sspan);
  if (!started) {
    ++ctx->failed;
    return false;
  }
  // The layer replay of this trip's fleet calls runs after the fix's root
  // span has ended (TraceHooks::ReplayPending).
  PendingTrip* pending = tr ? &hooks->pending : nullptr;
  if (pending) {
    pending->vid = s->vid;
    pending->sd = sd;
    pending->start_time = m->start_time;
  }
  double ts = m->start_time;
  for (size_t i = 0; i < m->edges.size(); ++i) {
    ctx->point = static_cast<int32_t>(i);
    const int span = tr ? tr->Begin(kSpanFeed) : -1;
    const auto r = monitor->Feed(s->vid, m->edges[i], ts);
    if (tr) tr->End(span);
    if (pending) {
      pending->edges.push_back(m->edges[i]);
      pending->ts.push_back(ts);
      pending->spans.push_back(span);
      pending->labels.push_back(r.ok() ? *r : -1);
    }
    if (!r.ok() || *r != ref.point_labels[i]) ++ctx->failed;
    ts += 2.0;
  }
  ctx->point = -1;
  ctx->closed = false;
  const int espan = tr ? tr->Begin(kSpanEndTrip) : -1;
  const bool ended = monitor->EndTrip(s->vid).ok();
  if (tr) tr->End(espan);
  if (!ended || !ctx->closed) ++ctx->failed;
  return false;
}

void RunGpsFleet(const Args& args, Report* report) {
  SetupTimes setup;
  auto world = ServingSetup(
      args.seed,
      [&](const ServingWorld& w) { return MakeGpsInputs(w, args.seed); },
      &setup);
  const ServingWorld& w = world.first;
  const GpsInputs& in = world.second;
  CheckTrainMatch(w, report);
  const GpsRefs refs = GpsReferences(w, in);

  SyncSink sink;
  serve::FleetConfig cfg;
  cfg.max_active_trips = 2 * kGpsLive;
  serve::FleetMonitor monitor(w.model.get(), cfg, &sink);
  const LoopClock clock = MakeClock(args.seconds, kWarmupS, kWindows);
  std::vector<ClientCtx> ctx(kClients, ClientCtx(kWindows));
  for (auto& c : ctx) c.fix.Reserve(kReservePerClientS * args.seconds / kWindows);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientCtx* cx = &ctx[static_cast<size_t>(c)];
      tl_ctx = cx;
      std::vector<GpsSlot> slots(kGpsLive / kClients);
      int64_t next_k = c;
      for (auto& s : slots) {
        s.matcher = std::make_unique<rl::mapmatch::StreamingMatcher>(
            w.matcher.get());
        s.Next(&next_k, kClients, in.order);
      }
      for (;;) {
        for (GpsSlot& s : slots) {
          const int64_t t0 = NowNs();
          if (t0 >= clock.end) return;
          const int win = Window(t0, clock.measure_start, clock.measure_ns,
                                 clock.windows);
          cx->window = win;
          cx->due_ns = t0;
          ++cx->attempted;
          const bool more = GpsFixStep(w, in, refs, &monitor, &s, cx, nullptr);
          const int64_t t1 = NowNs();
          cx->fix.Add(win, t1 - t0);
          cx->probe.MaybeSample(t1);
          if (win >= 0) ++cx->fixes_per_window[static_cast<size_t>(win)];
          if (!more) s.Next(&next_k, kClients, in.order);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ClosedLoopResult r(kWindows);
  int64_t unmatched = 0;
  for (const auto& c : ctx) {
    MergeCtx(c, &r, report);
    unmatched += c.unmatched;
  }
  if (sink.stray.load() > 0) report->Fail("stray sink callbacks", sink.stray);
  const auto st = monitor.Stats();
  report->Note("gps_fleet: " + std::to_string(kClients) + " clients, " +
               std::to_string(kGpsLive) + " live vehicles, trips finished " +
               std::to_string(st.trips_finished) + ", unmatched " +
               std::to_string(unmatched) + ", alerts " +
               std::to_string(st.alerts_emitted));
  AddServingModelMetrics(w, setup, report);
  ReportClosedLoop(r, clock.measure_ns, kWindows, report);
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
}

void GpsSlot::Next(int64_t* next_k, int clients,
                   const std::vector<uint32_t>& order) {
  vid = *next_k;
  pool = order[static_cast<size_t>(*next_k) % order.size()];
  pos = 0;
  *next_k += clients;
}

// ---------------------------------------------------------------------------
// Open-loop ingest: the deployment path, measured in edge_fleet's traced run.

serve::FleetConfig OpenConfig() {
  // bench_fleet_soak's chaos section: every guard class in repair mode,
  // quarantine armed with a malformed budget of 8.
  serve::FleetConfig cfg;
  cfg.max_active_trips = 4 * kOpenLive;
  cfg.ingest_workers = 2;
  cfg.ingest_queue_capacity = 16384;
  cfg.async_alerts = true;
  cfg.alert_queue_capacity = 65536;
  cfg.guard.duplicate_policy = serve::GuardPolicy::kRepair;
  cfg.guard.out_of_order_policy = serve::GuardPolicy::kRepair;
  cfg.guard.skew_policy = serve::GuardPolicy::kRepair;
  cfg.guard.dropout_policy = serve::GuardPolicy::kRepair;
  cfg.guard.teleport_policy = serve::GuardPolicy::kRepair;
  cfg.guard.malformed_budget = 8;
  return cfg;
}

OpenInputs MakeOpenInputs(const ServingWorld& w, uint64_t seed) {
  OpenInputs in;
  std::mt19937_64 rng(seed * 0xA0761D6478BD642Full + 3);
  serve::ChaosSpec spec;  // bench_fleet_soak's chaos mix
  spec.drop_prob = 0.02;
  spec.dup_prob = 0.03;
  spec.reorder_prob = 0.02;
  spec.skew_prob = 0.01;
  spec.teleport_prob = 0.01;
  spec.seed = rng();
  serve::ChaosInjector injector(spec, &w.city->net);
  const size_t n_pool = kOpenPoolCycles * w.pool.size();
  std::vector<uint32_t> order(w.pool.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
  std::vector<serve::FleetPoint> clean;
  for (size_t j = 0; j < n_pool; ++j) {
    if (j % order.size() == 0) std::shuffle(order.begin(), order.end(), rng);
    OpenInstance inst;
    inst.trip = order[j % order.size()];
    const auto& t = w.pool[inst.trip]->traj;
    const std::vector<double> ts = Timestamps(t, &rng);
    clean.clear();
    for (size_t i = 0; i < t.edges.size(); ++i) {
      clean.push_back({0, t.edges[i], ts[i]});
    }
    inst.points = injector.Perturb(clean);
    inst.chaos = injector.counts();
    if (inst.points.empty()) inst.points.push_back(clean.front());
    in.pool.push_back(std::move(inst));
  }
  // The schedule: kOpenLive slots round-robin, each slot replaying pool
  // instances back to back; after kOpenSeconds worth of fixes no slot
  // starts a new instance and the live ones run to their ends.
  const size_t main_fixes = static_cast<size_t>(kOpenSeconds * kOpenRate);
  struct Live {
    int32_t inst;
    int32_t point;
  };
  std::vector<Live> live;
  int32_t next_inst = 0;
  for (size_t s = 0; s < kOpenLive; ++s) live.push_back({next_inst++, 0});
  while (!live.empty()) {
    for (size_t s = 0; s < live.size();) {
      Live& l = live[s];
      in.sched.push_back({l.inst, l.point});
      const auto& pts = in.pool[static_cast<size_t>(l.inst) % n_pool].points;
      if (++l.point == static_cast<int32_t>(pts.size())) {
        if (in.sched.size() < main_fixes) {
          l = {next_inst++, 0};
        } else {
          live.erase(live.begin() + static_cast<ptrdiff_t>(s));
          continue;
        }
      }
      ++s;
    }
  }
  in.instances = next_inst;
  return in;
}

namespace {

/// Records which offered point each reference alert came from.
class OpenRefSink : public serve::AlertSink {
 public:
  void OnAlert(const serve::Alert& a) override {
    cur->alerts.push_back({a.range, a.position, point});
  }
  void OnTripEnd(int64_t, const std::vector<uint8_t>& labels) override {
    cur->final_labels = labels;
  }
  void OnTripEvicted(int64_t, double, const std::vector<uint8_t>&) override {
    cur->evicted = true;
  }
  RefTrip* cur = nullptr;
  int32_t point = -1;
};

serve::FleetStats Minus(const serve::FleetStats& a, const serve::FleetStats& b) {
  serve::FleetStats d;
#define PB_DIFF(f) d.f = a.f - b.f
  PB_DIFF(trips_started); PB_DIFF(trips_finished); PB_DIFF(points_processed);
  PB_DIFF(alerts_emitted); PB_DIFF(trips_evicted); PB_DIFF(points_submitted);
  PB_DIFF(points_shed); PB_DIFF(alerts_delivered); PB_DIFF(guard_duplicates);
  PB_DIFF(guard_out_of_order); PB_DIFF(guard_clock_skew);
  PB_DIFF(guard_dropout_gaps); PB_DIFF(guard_teleports);
  PB_DIFF(guard_invalid_edges); PB_DIFF(points_repaired);
  PB_DIFF(points_rejected); PB_DIFF(points_quarantine_dropped);
  PB_DIFF(trips_quarantined); PB_DIFF(trips_recovered);
  PB_DIFF(quarantine_evictions);
#undef PB_DIFF
  return d;
}

}  // namespace

void OpenReferences(const ServingWorld& w, OpenInputs* in, Report* report) {
  serve::FleetConfig cfg = OpenConfig();
  cfg.ingest_workers = 0;
  cfg.async_alerts = false;
  OpenRefSink sink;
  serve::FleetMonitor monitor(w.model.get(), cfg, &sink);
  serve::FleetStats before = monitor.Stats();
  for (size_t j = 0; j < in->pool.size(); ++j) {
    OpenInstance& inst = in->pool[j];
    sink.cur = &inst.ref;
    const auto& t = w.pool[inst.trip]->traj;
    const auto vid = static_cast<int64_t>(j);
    if (!monitor.StartTrip(vid, t.sd(), t.start_time).ok()) {
      report->Fail("reference StartTrip failed");
    }
    for (size_t i = 0; i < inst.points.size(); ++i) {
      sink.point = static_cast<int32_t>(i);
      const auto& p = inst.points[i];
      const auto r = monitor.Feed(vid, p.edge, p.timestamp);
      if (r.ok()) {
        inst.ref.point_labels.push_back(static_cast<uint8_t>(*r));
      } else if (r.status().code() != rl::StatusCode::kInvalidArgument &&
                 r.status().code() != rl::StatusCode::kResourceExhausted &&
                 r.status().code() != rl::StatusCode::kNotFound) {
        report->Fail("reference Feed: " + r.status().message());
      }
    }
    sink.point = -1;
    (void)monitor.EndTrip(vid);  // NotFound after a quarantine eviction
    const serve::FleetStats after = monitor.Stats();
    inst.stats = Minus(after, before);
    before = after;
  }
}

void OpenSink::OnAlert(const serve::Alert& a) {
  rl::common::MutexLock lock(&mu_);
  const auto k = static_cast<size_t>(a.vehicle_id);
  if (a.vehicle_id < 0 || k >= seen_.size()) {
    ++mismatches;
    return;
  }
  const OpenInstance& inst = in_->Instance(static_cast<int32_t>(k));
  const size_t idx = seen_[k]++;
  if (idx >= inst.ref.alerts.size()) {
    ++mismatches;
    return;
  }
  const RefAlert& r = inst.ref.alerts[idx];
  if (!(r.range == a.range) || r.position != a.position) ++mismatches;
}

void OpenSink::OnTripEnd(int64_t vehicle_id,
                         const std::vector<uint8_t>& labels) {
  rl::common::MutexLock lock(&mu_);
  const auto k = static_cast<size_t>(vehicle_id);
  if (vehicle_id < 0 || k >= seen_.size()) {
    ++mismatches;
    return;
  }
  const OpenInstance& inst = in_->Instance(static_cast<int32_t>(k));
  if (inst.ref.evicted || labels != inst.ref.final_labels ||
      seen_[k] != inst.ref.alerts.size()) {
    ++mismatches;
  }
  ++ended;
}

void OpenSink::OnTripEvicted(int64_t vehicle_id, double,
                             const std::vector<uint8_t>&) {
  rl::common::MutexLock lock(&mu_);
  const auto k = static_cast<size_t>(vehicle_id);
  if (vehicle_id < 0 || k >= seen_.size() ||
      !in_->Instance(static_cast<int32_t>(k)).ref.evicted) {
    ++mismatches;
    return;
  }
  ++ended;
}

OpenResult RunOpenLoop(const ServingWorld& w, const OpenInputs& in,
                       TraceHooks* hooks, Report* report) {
  OpenResult out;
  out.gen_late_ns.reserve(in.sched.size());
  OpenSink sink(&in);
  serve::FleetMonitor monitor(w.model.get(), OpenConfig(), &sink);
  const int64_t period_ns = static_cast<int64_t>(1e9 / kOpenRate);
  const int64_t t0 = NowNs() + 1000000;
  int64_t failed = 0;
  for (size_t g = 0; g < in.sched.size(); ++g) {
    const int64_t due = t0 + static_cast<int64_t>(g) * period_ns;
    int64_t now = NowNs();
    // Sleep until the next fix is due, then offer every fix due by then: the
    // generator does not hold a core spinning, at the price of arrivals in
    // small bursts (the wake-up slack shows in bench.gen_late_us_p99).
    while (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = NowNs();
    }
    out.gen_late_ns.push_back(
        static_cast<uint32_t>(std::clamp<int64_t>(now - due, 0, UINT32_MAX)));
    const auto& e = in.sched[g];
    const OpenInstance& inst = in.Instance(e.inst);
    const auto& p = inst.points[static_cast<size_t>(e.point)];
    if (e.point == 0) {
      const auto& t = w.pool[inst.trip]->traj;
      if (!monitor.StartTrip(e.inst, t.sd(), t.start_time).ok()) ++failed;
    }
    hooks->tracer.set_fix(static_cast<int64_t>(g));
    const int span = hooks->tracer.Begin(kSpanSubmit);
    if (!monitor.Submit({e.inst, p.edge, p.timestamp}).ok()) ++failed;
    hooks->tracer.End(span);
    if (g % 1024 == 0) {
      const auto st = monitor.Stats();
      hooks->backlog_max = std::max(
          hooks->backlog_max,
          st.points_submitted - st.points_shed - st.points_processed -
              st.points_rejected - st.points_quarantine_dropped);
    }
    if (e.point + 1 == static_cast<int32_t>(inst.points.size())) {
      if (!monitor.SubmitEndTrip(e.inst).ok()) ++failed;
    }
  }
  const int64_t drain_start = NowNs();
  monitor.Quiesce();
  out.drain_ms = static_cast<double>(NowNs() - drain_start) / 1e6;
  out.stats = monitor.Stats();
  out.queue_wait_ns = monitor.TakeAlertLatencySamplesNs();

  // Gates: every offered op accepted, every trip ended or evicted exactly
  // as in the sync reference, guard counters equal to the reference's, and
  // both conservation identities.
  report->Attempt(static_cast<int64_t>(in.sched.size()) + in.instances);
  if (failed > 0) report->Fail("Submit/StartTrip/SubmitEndTrip failed", failed);
  if (sink.mismatches > 0) {
    report->Fail("async sink output differs from the sync reference",
                 sink.mismatches);
  }
  if (sink.ended != in.instances) {
    report->Fail("trips without an end or eviction",
                 std::max<int64_t>(1, in.instances - sink.ended));
  }
  serve::FleetStats want;
  rl::serve::ChaosCounts chaos;
  for (int32_t k = 0; k < in.instances; ++k) {
    const OpenInstance& inst = in.Instance(k);
    const serve::FleetStats& d = inst.stats;
#define PB_ADD(f) want.f += d.f
    PB_ADD(trips_finished); PB_ADD(points_processed); PB_ADD(alerts_emitted);
    PB_ADD(trips_evicted); PB_ADD(guard_duplicates); PB_ADD(guard_out_of_order);
    PB_ADD(guard_clock_skew); PB_ADD(guard_dropout_gaps);
    PB_ADD(guard_teleports); PB_ADD(guard_invalid_edges);
    PB_ADD(points_repaired); PB_ADD(points_rejected);
    PB_ADD(points_quarantine_dropped); PB_ADD(trips_quarantined);
    PB_ADD(trips_recovered); PB_ADD(quarantine_evictions);
#undef PB_ADD
    chaos.duplicated += inst.chaos.duplicated;
    chaos.reordered += inst.chaos.reordered;
    chaos.skewed += inst.chaos.skewed;
    chaos.teleported += inst.chaos.teleported;
    chaos.drop_gaps += inst.chaos.drop_gaps;
  }
  const serve::FleetStats& s = out.stats;
  auto gate = [&](const char* what, int64_t got, int64_t expect) {
    if (got != expect) {
      report->Fail(std::string(what) + " " + std::to_string(got) +
                   " != reference " + std::to_string(expect));
    }
  };
  gate("trips_finished", s.trips_finished, want.trips_finished);
  gate("trips_evicted", s.trips_evicted, want.trips_evicted);
  gate("points_processed", s.points_processed, want.points_processed);
  gate("alerts_emitted", s.alerts_emitted, want.alerts_emitted);
  gate("guard_duplicates", s.guard_duplicates, want.guard_duplicates);
  gate("guard_out_of_order", s.guard_out_of_order, want.guard_out_of_order);
  gate("guard_clock_skew", s.guard_clock_skew, want.guard_clock_skew);
  gate("guard_dropout_gaps", s.guard_dropout_gaps, want.guard_dropout_gaps);
  gate("guard_teleports", s.guard_teleports, want.guard_teleports);
  gate("guard_invalid_edges", s.guard_invalid_edges, want.guard_invalid_edges);
  gate("points_repaired", s.points_repaired, want.points_repaired);
  gate("points_rejected", s.points_rejected, want.points_rejected);
  gate("points_quarantine_dropped", s.points_quarantine_dropped,
       want.points_quarantine_dropped);
  gate("trips_quarantined", s.trips_quarantined, want.trips_quarantined);
  gate("quarantine_evictions", s.quarantine_evictions,
       want.quarantine_evictions);
  gate("trip conservation", s.trips_started,
       s.trips_finished + s.trips_evicted +
           static_cast<int64_t>(monitor.ActiveTrips()));
  gate("point conservation", s.points_submitted - s.points_shed,
       s.points_processed + s.points_rejected + s.points_quarantine_dropped);
  report->Note(
      "open loop: offered " + std::to_string(in.sched.size()) + " fixes at " +
      std::to_string(static_cast<int64_t>(kOpenRate)) + "/s over " +
      std::to_string(in.instances) + " trips, " + std::to_string(kOpenLive) +
      " live; injected dup " + std::to_string(chaos.duplicated) +
      " reorder " + std::to_string(chaos.reordered) + " skew " +
      std::to_string(chaos.skewed) + " teleport " +
      std::to_string(chaos.teleported) + " drop-gap " +
      std::to_string(chaos.drop_gaps) + "; guard dup " +
      std::to_string(s.guard_duplicates) + " ooo " +
      std::to_string(s.guard_out_of_order) + " skew " +
      std::to_string(s.guard_clock_skew) + " teleport " +
      std::to_string(s.guard_teleports) + " dropout " +
      std::to_string(s.guard_dropout_gaps) + "; quarantined " +
      std::to_string(s.trips_quarantined) + ", alerts " +
      std::to_string(s.alerts_emitted));
  return out;
}

}  // namespace perfbench
