# Chaos ingest smoke (ctest target `chaos_ingest_smoke`): generate a tiny
# fleet workload, train a tiny model, then replay it through oasd_simulate
# with a seeded --chaos spec and require these properties end to end, on
# the real binaries:
#
#   1. Determinism — two identical seeded chaos runs produce the identical
#      per-vehicle alert multiset and identical guard/fleet metrics.
#   2. Thread invariance — the injector is seeded per vehicle, so a
#      --threads 1 run prints the same alerts and fleet_*/guard_* metrics
#      as the --threads 2 runs.
#   3. Mode equivalence — the async staged-ingest run (--async) of the same
#      seeded chaos stream produces the same alert multiset as the batched
#      synchronous run (the guard runs below both ingest paths).
#   4. Matched ingest composes — two --matched-ingest --chaos runs (GPS
#      fixes matched back to edges, then perturbed) agree with each other.
#   5. Conservation — each metrics dump satisfies
#      trips_started == trips_finished + trips_evicted + trips_active
#      and sheds nothing under the default kBlock policy.
#   6. Kept refusals — each of the four flag combinations oasd_simulate
#      still refuses exits nonzero with its reason.
#
# On failure the work dir — dataset, model, and all replay logs — is left
# behind for triage; the CI Release job uploads it as an artifact. On
# success it is removed.
#
# Expected -D variables: OASD_GEN OASD_TRAIN OASD_SIMULATE WORK_DIR

foreach(var OASD_GEN OASD_TRAIN OASD_SIMULATE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "chaos_smoke.cmake: missing -D${var}")
  endif()
endforeach()

include(${CMAKE_CURRENT_LIST_DIR}/smoke_common.cmake)

# A mixed spec that exercises every anomaly class plus the quarantine path
# (--chaos arms the guard in repair mode with a malformed budget of 8).
set(spec "drop=0.03,dup=0.04,reorder=0.03,skew=0.02,teleport=0.03,seed=42")

# Two identical seeded runs (determinism), their --threads 1 twin (thread
# invariance), the async-ingest twin (mode equivalence), and two seeded
# matched-ingest runs.
run_step(chaos_a.log ${simulate} --threads 2 --batch 4 --chaos ${spec})
run_step(chaos_b.log ${simulate} --threads 2 --batch 4 --chaos ${spec})
run_step(chaos_t1.log ${simulate} --threads 1 --batch 4 --chaos ${spec})
run_step(chaos_async.log ${simulate} --threads 2 --async --chaos ${spec})
run_step(matched_a.log ${simulate} --threads 2 --batch 4 --matched-ingest
  --chaos ${spec})
run_step(matched_b.log ${simulate} --threads 2 --batch 4 --matched-ingest
  --chaos ${spec})

# A run's signature: its alert multiset plus the fleet/guard/model
# counters of its metrics dump (timing lines are excluded by construction:
# metrics lines are bare `name value` pairs).
set(signature "^(ALERT |fleet_|guard_|model_)")
matching_lines(sig_a "${signature}" chaos_a.log)
matching_lines(sig_b "${signature}" chaos_b.log)
matching_lines(sig_t1 "${signature}" chaos_t1.log)
matching_lines(sig_ma "${signature}" matched_a.log)
matching_lines(sig_mb "${signature}" matched_b.log)
matching_lines(alerts_a "^ALERT " chaos_a.log)
matching_lines(alerts_async "^ALERT " chaos_async.log)
matching_lines(alerts_ma "^ALERT " matched_a.log)

list(LENGTH alerts_a n_alerts)
list(LENGTH alerts_ma n_matched_alerts)
if(n_alerts EQUAL 0 OR n_matched_alerts EQUAL 0)
  message(FATAL_ERROR
    "chaos smoke is vacuous: a perturbed replay produced no alerts "
    "(work dir kept at ${WORK_DIR})")
endif()
require_same("seeded chaos replay is not deterministic"
  "run A" "${sig_a}" "run B" "${sig_b}")
require_same("seeded chaos replay depends on --threads"
  "--threads 2" "${sig_a}" "--threads 1" "${sig_t1}")
require_same("seeded matched-ingest chaos replay is not deterministic"
  "run A" "${sig_ma}" "run B" "${sig_mb}")
# The async run's metrics differ by design (points_submitted counts the
# staged points), so only its alerts are compared.
require_same(
  "sync/async divergence under chaos: batched and staged ingest disagree"
  "batched" "${alerts_a}" "async" "${alerts_async}")

# Conservation and non-vacuity, parsed from the metrics dumps.
function(metric out log name)
  file(READ ${WORK_DIR}/${log} content)
  if(NOT content MATCHES "${name} ([0-9]+)")
    message(FATAL_ERROR
      "metric '${name}' missing from ${log} (work dir kept at ${WORK_DIR})")
  endif()
  set(${out} ${CMAKE_MATCH_1} PARENT_SCOPE)
endfunction()

function(require_conservation log)
  metric(started ${log} fleet_trips_started)
  metric(finished ${log} fleet_trips_finished)
  metric(evicted ${log} fleet_trips_evicted)
  metric(active ${log} fleet_trips_active)
  metric(shed ${log} fleet_points_shed)
  math(EXPR accounted "${finished} + ${evicted} + ${active}")
  if(NOT started EQUAL accounted)
    message(FATAL_ERROR
      "trip conservation broken in ${log}: started ${started} != finished "
      "${finished} + evicted ${evicted} + active ${active} (work dir kept "
      "at ${WORK_DIR})")
  endif()
  if(NOT shed EQUAL 0)
    message(FATAL_ERROR
      "kBlock replay ${log} shed ${shed} points (work dir kept at "
      "${WORK_DIR})")
  endif()
endfunction()

require_conservation(chaos_a.log)
require_conservation(matched_a.log)
metric(started chaos_a.log fleet_trips_started)
metric(quarantined chaos_a.log guard_trips_quarantined)
metric(dups chaos_a.log guard_duplicates)
metric(skews chaos_a.log guard_clock_skew)
if(dups EQUAL 0 OR skews EQUAL 0)
  message(FATAL_ERROR
    "chaos smoke is vacuous: guard saw ${dups} duplicates / ${skews} skews "
    "(work dir kept at ${WORK_DIR})")
endif()

# Every combination oasd_simulate still refuses must exit nonzero with its
# reason, before any replay starts.
function(require_refused log_name)
  execute_process(
    COMMAND ${simulate} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_FILE ${WORK_DIR}/${log_name}
    ERROR_FILE ${WORK_DIR}/${log_name})
  file(READ ${WORK_DIR}/${log_name} log)
  if(rc EQUAL 0 OR NOT log MATCHES "error: --[a-z-]+.* (require|cannot be)")
    string(REPLACE ";" " " args "${ARGN}")
    message(FATAL_ERROR "'${args}' was not refused (exit ${rc}):\n${log}")
  endif()
endfunction()

require_refused(refuse_threads.log --threads 2 --snapshot-every 100)
require_refused(refuse_chaos.log --threads 1 --max-points 100
  --chaos ${spec})
require_refused(refuse_adapt.log --threads 1 --snapshot-every 100 --adapt)
require_refused(refuse_async_adapt.log --threads 2 --async --adapt)

message(STATUS "chaos smoke OK: ${n_alerts} alerts identical across seeded "
  "runs, thread counts and ingest modes; ${started} trips conserved "
  "(${quarantined} quarantined); ${n_matched_alerts} matched-ingest alerts "
  "reproducible; four refusals hold")
file(REMOVE_RECURSE ${WORK_DIR})
