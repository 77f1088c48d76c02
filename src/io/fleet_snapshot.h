// The durable fleet snapshot format: every piece of live serving state of a
// serve::FleetMonitor — per-trip detection sessions (LSTM hidden states,
// label/edge history, Delayed-Labeling windows, undrained runs, RNG stream
// positions), service counters, and an application metadata string — in one
// CRC32-protected file. Layout (inside a BinaryWriter payload):
//
//   magic "RLFS" | u32 format version | u64 model-bundle fingerprint |
//   user metadata string | 17 x i64 service counters (kFleetCounterFields) |
//   u64 trip count | per trip: i64 vehicle_id | f64 last_update |
//                              length-prefixed session record |
//                              length-prefixed ingest-guard record
//
// Version history: v1 carried 5 service counters and no guard record;
// v2 (current) appends the 12 ingest-guard counters after the original 5
// and a per-trip serve::IngestGuard::State blob after the session record,
// so quarantine state round-trips through restore. Older versions are
// rejected with a descriptive error (snapshots are ephemeral hand-off
// state, not archives — see serve::FleetMonitor::Restore).
//
// The session record is written by core::OnlineDetector::Session::ExportState
// and is opaque at this level; length-prefixing lets tooling (oasd_inspect)
// describe a snapshot without reconstructing the fleet. The fingerprint is
// io::ModelFingerprint of the serving model at snapshot time: restore
// refuses a snapshot stamped by a different model, because replaying hidden
// states against other weights would silently diverge instead of honoring
// the restore-equivalence contract (see serve::FleetMonitor::Snapshot).
//
// Writing and restoring live in serve::FleetMonitor (Snapshot/Restore);
// this header owns the format constants, the list of persisted service
// counters (FleetCounters and its kFleetCounterFields table, which also
// names the monitor's metrics lines), and the model-free inspector.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "common/binary.h"
#include "common/status.h"

namespace rl4oasd::io {

inline constexpr char kFleetSnapshotMagic[4] = {'R', 'L', 'F', 'S'};
inline constexpr uint32_t kFleetSnapshotVersion = 2;

/// The persisted service counters of a serve::FleetMonitor (monotonic since
/// the fleet first started; a restore resumes them). serve::FleetStats
/// derives from this struct and adds the counters that are not persisted.
struct FleetCounters {
  int64_t trips_started = 0;
  int64_t trips_finished = 0;
  int64_t points_processed = 0;
  int64_t alerts_emitted = 0;
  int64_t trips_evicted = 0;
  // Ingest-guard counters (format v2; semantics on serve::FleetStats).
  int64_t guard_duplicates = 0;
  int64_t guard_out_of_order = 0;
  int64_t guard_clock_skew = 0;
  int64_t guard_dropout_gaps = 0;
  int64_t guard_teleports = 0;
  int64_t guard_invalid_edges = 0;
  int64_t points_repaired = 0;
  int64_t points_rejected = 0;
  int64_t points_quarantine_dropped = 0;
  int64_t trips_quarantined = 0;
  int64_t trips_recovered = 0;
  int64_t quarantine_evictions = 0;
};

/// One persisted counter: its FleetCounters member and the name of its
/// serve::FleetMonitor::DumpMetrics line.
struct FleetCounterField {
  int64_t FleetCounters::*member;
  std::string_view metric;
};

/// The one list of persisted counters, in snapshot order. Every loop over
/// the counters (the snapshot writer and reader, the inspector, the
/// monitor's per-shard atomics, Stats and DumpMetrics) walks this table.
inline constexpr FleetCounterField kFleetCounterFields[] = {
    {&FleetCounters::trips_started, "fleet_trips_started"},
    {&FleetCounters::trips_finished, "fleet_trips_finished"},
    {&FleetCounters::points_processed, "fleet_points_processed"},
    {&FleetCounters::alerts_emitted, "fleet_alerts_emitted"},
    {&FleetCounters::trips_evicted, "fleet_trips_evicted"},
    {&FleetCounters::guard_duplicates, "guard_duplicates"},
    {&FleetCounters::guard_out_of_order, "guard_out_of_order"},
    {&FleetCounters::guard_clock_skew, "guard_clock_skew"},
    {&FleetCounters::guard_dropout_gaps, "guard_dropout_gaps"},
    {&FleetCounters::guard_teleports, "guard_teleports"},
    {&FleetCounters::guard_invalid_edges, "guard_invalid_edges"},
    {&FleetCounters::points_repaired, "guard_points_repaired"},
    {&FleetCounters::points_rejected, "guard_points_rejected"},
    {&FleetCounters::points_quarantine_dropped,
     "guard_points_quarantine_dropped"},
    {&FleetCounters::trips_quarantined, "guard_trips_quarantined"},
    {&FleetCounters::trips_recovered, "guard_trips_recovered"},
    {&FleetCounters::quarantine_evictions, "guard_quarantine_evictions"},
};
inline constexpr size_t kNumFleetCounters = std::size(kFleetCounterFields);
/// Position of `member` in kFleetCounterFields (compile time only; a member
/// missing from the table does not compile).
consteval size_t FleetCounterIndex(int64_t FleetCounters::*member) {
  for (size_t i = 0; i < kNumFleetCounters; ++i) {
    if (kFleetCounterFields[i].member == member) return i;
  }
  throw "member is not listed in kFleetCounterFields";
}

/// True when kFleetCounterFields lists every FleetCounters member once.
consteval bool ListsEveryFleetCounterOnce() {
  for (size_t i = 0; i < kNumFleetCounters; ++i) {
    if (FleetCounterIndex(kFleetCounterFields[i].member) != i) return false;
  }
  return kNumFleetCounters * sizeof(int64_t) == sizeof(FleetCounters);
}
static_assert(ListsEveryFleetCounterOnce(),
              "kFleetCounterFields must list every FleetCounters member once");

/// The fixed header that precedes the trip array. One parser
/// (ReadFleetSnapshotHeader) serves both serve::FleetMonitor::Restore and
/// DescribeFleetSnapshot, so the layout lives in exactly one place.
struct FleetSnapshotHeader : FleetCounters {
  uint64_t model_fingerprint = 0;
  std::string user_meta;
};

/// Per-trip header readable without the model or road network.
struct FleetSnapshotTrip {
  int64_t vehicle_id = 0;
  double last_update = 0.0;
  double start_time = 0.0;
  uint64_t points_fed = 0;  // labels recorded when the snapshot was taken
  /// The trip was quarantined by the ingest guard when the snapshot was
  /// taken (skimmed from the guard record's trailing flag).
  bool quarantined = false;
};

/// Snapshot metadata readable without reconstructing the fleet — backs the
/// oasd_inspect tool and CI triage. The inherited header carries the
/// service counters at snapshot time.
struct FleetSnapshotInfo : FleetSnapshotHeader {
  uint32_t version = 0;
  std::vector<FleetSnapshotTrip> trips;
  uint64_t total_points = 0;       // sum of points_fed over all live trips
  uint64_t quarantined_trips = 0;  // live trips snapshotted mid-quarantine
};

/// Reads magic, version, fingerprint, user metadata, and the service
/// counters from `r`, leaving it positioned at the trip count. Bad magic
/// and unknown versions return descriptive errors. The counters are hostile
/// input too: a negative one, or a trips_finished + trips_evicted that
/// could overflow once Restore adds the live trips to derive trips_started,
/// is InvalidArgument — so Restore and DescribeFleetSnapshot reject the
/// same headers.
Status ReadFleetSnapshotHeader(BinaryReader* r, FleetSnapshotHeader* header);

/// Reads the trip count that follows the header, rejecting counts that
/// cannot fit in the remaining payload (each record is at least a vehicle
/// id, a timestamp, and an empty length-prefixed session blob) before any
/// caller reserves memory for them.
Status ReadFleetSnapshotTripCount(BinaryReader* r, uint64_t* num_trips);

/// Parses a snapshot's structure (CRC-verified) without a model: the trip
/// session records are skimmed for their headers, not reconstructed.
Result<FleetSnapshotInfo> DescribeFleetSnapshot(const std::string& path);

/// True when `path` starts with the fleet-snapshot magic — a cheap 4-byte
/// peek (no CRC verification) that lets tooling dispatch between bundle
/// kinds; the describe/restore path that follows does the full verified
/// read.
bool LooksLikeFleetSnapshot(const std::string& path);

}  // namespace rl4oasd::io
