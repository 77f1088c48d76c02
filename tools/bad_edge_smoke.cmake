# Out-of-range edge smoke (ctest target `bad_edge_input_smoke`): oasd_detect
# on a hand-written two-edge road network and a CSV dataset whose second
# trajectory names edge 7 must exit nonzero with the dataset loader's
# message. The loader runs before the model is opened, so no model (and no
# training) is needed.
#
# Expected -D variables: OASD_DETECT WORK_DIR

foreach(var OASD_DETECT WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bad_edge_smoke.cmake: missing -D${var}")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
file(WRITE ${WORK_DIR}/net.vertices.csv
  "id,lat,lon\n0,30.000,104.0\n1,30.001,104.0\n2,30.002,104.0\n")
file(WRITE ${WORK_DIR}/net.edges.csv
  "id,from,to,length_m,speed_mps,class\n0,0,1,111.0,10.0,0\n1,1,2,111.0,10.0,0\n")
file(WRITE ${WORK_DIR}/bad.csv
  "id,start_time,edges,labels\n1,0,0 1,00\n2,0,0 7 1,000\n")

execute_process(
  COMMAND ${OASD_DETECT} --network ${WORK_DIR}/net
          --input ${WORK_DIR}/bad.csv --model ${WORK_DIR}/absent.rlmb
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "oasd_detect accepted an out-of-range edge:\n${out}")
endif()
set(expected
  "trajectory 2 point 1: edge 7 outside the road network (2 edges)")
string(FIND "${err}" "${expected}" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR
    "oasd_detect exited ${rc} without '${expected}':\n${err}")
endif()
file(REMOVE_RECURSE ${WORK_DIR})
