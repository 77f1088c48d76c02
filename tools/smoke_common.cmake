# Helpers shared by the oasd_simulate smokes (snapshot_smoke.cmake,
# chaos_smoke.cmake), which include this file after checking their -D
# variables. It resets WORK_DIR and builds the tiny workload both smokes
# replay.

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# Runs a command with its stdout+stderr in WORK_DIR/<log_name>; a nonzero
# exit fails the smoke with the log.
function(run_step log_name)
  execute_process(
    COMMAND ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_FILE ${WORK_DIR}/${log_name}
    ERROR_FILE ${WORK_DIR}/${log_name})
  if(NOT rc EQUAL 0)
    file(READ ${WORK_DIR}/${log_name} log)
    message(FATAL_ERROR "step '${log_name}' failed (${rc}):\n${log}")
  endif()
endfunction()

# Collects the lines matching `pattern` from one or more logs, sorted
# (alert arrival order across worker threads is scheduling-dependent; the
# multiset is not).
function(matching_lines out pattern)
  set(lines)
  foreach(log ${ARGN})
    file(READ ${WORK_DIR}/${log} content)
    # An unbalanced "[" inside a CMake list element swallows the ";"
    # separators that follow it; alert ranges print as "[a,b)", so
    # normalize the bracket away before any list operation.
    string(REPLACE "[" "<" content "${content}")
    string(REPLACE "\n" ";" content "${content}")
    foreach(line ${content})
      if(line MATCHES "${pattern}")
        list(APPEND lines "${line}")
      endif()
    endforeach()
  endforeach()
  list(SORT lines)
  set(${out} "${lines}" PARENT_SCOPE)
endfunction()

function(require_same what a_name a b_name b)
  if(NOT "${a}" STREQUAL "${b}")
    message(FATAL_ERROR
      "${what}\n--- ${a_name} ---\n${a}\n--- ${b_name} ---\n${b}\n"
      "(work dir kept at ${WORK_DIR})")
  endif()
endfunction()

# Tiny but alert-rich workload: high anomaly ratio so the equivalence
# checks are not vacuous, fixed seeds so every replay is deterministic.
run_step(gen.log ${OASD_GEN} --out-dir ${WORK_DIR}
  --grid-rows 10 --grid-cols 10 --pairs 6 --min-trajs 30 --max-trajs 60
  --train-size 400 --min-pair-dist 800 --max-pair-dist 2500
  --anomaly-ratio 0.3)
run_step(train.log ${OASD_TRAIN} --data-dir ${WORK_DIR}
  --model ${WORK_DIR}/model.rlmb --hidden-dim 16 --embed-dim 16
  --pretrain-samples 60 --joint-samples 120)

set(simulate ${OASD_SIMULATE} --data-dir ${WORK_DIR}
  --model ${WORK_DIR}/model.rlmb --print-alerts)
