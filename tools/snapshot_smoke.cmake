# Snapshot round-trip smoke (ctest target `snapshot_roundtrip_smoke`):
# generate a tiny fleet workload, train a tiny model, then for each of three
# ingest modes (batched FeedBatch, async SubmitBatch, and matched ingest
# through the GPS front end, all with --batch 4) replay to a mid-stream
# snapshot and stop (a simulated crash at a snapshot boundary), resume in a
# fresh process, and require the union of the crash-run and resumed-run
# alert streams to equal that mode's uninterrupted alert stream exactly.
# The uninterrupted --batch 0, --batch 4 and --async replays of the clean
# stream must also print the same alert multiset.
#
# On failure the work dir — including the snapshots, the replay logs, and
# the model bundle — is left behind for triage; the CI jobs upload it as an
# artifact. On success it is removed.
#
# Expected -D variables: OASD_GEN OASD_TRAIN OASD_SIMULATE OASD_INSPECT
# WORK_DIR

foreach(var OASD_GEN OASD_TRAIN OASD_SIMULATE OASD_INSPECT WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "snapshot_smoke.cmake: missing -D${var}")
  endif()
endforeach()

include(${CMAKE_CURRENT_LIST_DIR}/smoke_common.cmake)
list(APPEND simulate --threads 1)

# One mode's round trip: the uninterrupted replay (<tag>_full.log), a crash
# at the first snapshot boundary (~mid-stream of the ~1.6k points), and a
# fresh-process resume from <tag>.snap. The per-vehicle alert multisets of
# the uninterrupted run and of crash + resume combined must match exactly.
function(crash_resume tag)
  run_step(${tag}_full.log ${simulate} ${ARGN})
  run_step(${tag}_crash.log ${simulate} ${ARGN}
    --snapshot-every 800 --max-points 800
    --snapshot-path ${WORK_DIR}/${tag}.snap)
  run_step(${tag}_resume.log ${simulate} ${ARGN}
    --resume-from ${WORK_DIR}/${tag}.snap)
  matching_lines(full_alerts "^ALERT " ${tag}_full.log)
  matching_lines(split_alerts "^ALERT " ${tag}_crash.log ${tag}_resume.log)
  list(LENGTH full_alerts n_full)
  if(n_full EQUAL 0)
    message(FATAL_ERROR "smoke is vacuous: the uninterrupted ${tag} replay "
      "produced no alerts (work dir kept at ${WORK_DIR})")
  endif()
  require_same("restore-equivalence violated (${tag})"
    uninterrupted "${full_alerts}" crash+resume "${split_alerts}")
  message(STATUS "${tag}: ${n_full} alerts identical across the "
    "crash/resume boundary")
endfunction()

crash_resume(batched --batch 4)
crash_resume(async --async --batch 4)
crash_resume(matched --matched-ingest --batch 4)

# The snapshot must describe cleanly (exercises oasd_inspect dispatch) and
# list every persisted counter, the ingest-guard ones included.
run_step(inspect.log ${OASD_INSPECT} ${WORK_DIR}/batched.snap --trips)
matching_lines(guard_counter_lines "^ +guard_trips_quarantined +[0-9]+$"
  inspect.log)
if(NOT guard_counter_lines)
  message(FATAL_ERROR "oasd_inspect printed no guard_trips_quarantined "
    "counter line (work dir kept at ${WORK_DIR})")
endif()

# Mode equivalence on the clean stream: one trip at a time through Feed,
# four-trip FeedBatch waves, and the async staged pipeline.
run_step(feed.log ${simulate} --batch 0)
run_step(async_feed.log ${simulate} --async)
matching_lines(batched_alerts "^ALERT " batched_full.log)
matching_lines(feed_alerts "^ALERT " feed.log)
matching_lines(async_feed_alerts "^ALERT " async_feed.log)
require_same("ingest modes disagree: --batch 0 != --batch 4 alerts"
  "--batch 0" "${feed_alerts}" "--batch 4" "${batched_alerts}")
require_same("ingest modes disagree: --async != --batch 4 alerts"
  "--async" "${async_feed_alerts}" "--batch 4" "${batched_alerts}")

message(STATUS "snapshot smoke OK: three ingest modes restore-equivalent, "
  "--batch 0/--batch 4/--async alert multisets identical")
file(REMOVE_RECURSE ${WORK_DIR})
