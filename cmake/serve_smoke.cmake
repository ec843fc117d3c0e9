# serve_smoke.cmake -- end-to-end smoke of the concurrent serving
# engine: `dash_lab serve-bench` on a small graph with the full
# label-vs-BFS cross-check (--verify) must report zero torn reads and a
# deterministic mutation stream (its exit code says both), and a second
# run must stream per-round rows to a CSV beside its JSON report.
#
# Expects: DASH_LAB, WORK_DIR.

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

execute_process(
  COMMAND ${DASH_LAB} serve-bench --n 512 --readers 2,4
          --scenario churn:0.3,0.1x300 --verify
          --json ${WORK_DIR}/serve_churn.json
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve-bench --verify failed (rc=${rc}):\n${out}\n${err}")
endif()
if(NOT EXISTS ${WORK_DIR}/serve_churn.json)
  message(FATAL_ERROR "serve-bench --verify wrote no JSON report")
endif()
file(READ ${WORK_DIR}/serve_churn.json report)
if(NOT report MATCHES "\"torn_reads\": 0")
  message(FATAL_ERROR "serve-bench reported torn reads:\n${report}")
endif()
if(NOT report MATCHES "\"deterministic\": true")
  message(FATAL_ERROR "mutation stream diverged across reader counts:\n${report}")
endif()

execute_process(
  COMMAND ${DASH_LAB} serve-bench --n 256 --readers 4
          --scenario churn:0.3,0.1x200 --distance-every 4
          --rows ${WORK_DIR}/serve_rows.csv
          --json ${WORK_DIR}/serve_bench.json --quiet
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dash_lab serve-bench failed (rc=${rc}):\n${out}\n${err}")
endif()
if(NOT EXISTS ${WORK_DIR}/serve_bench.json)
  message(FATAL_ERROR "dash_lab serve-bench wrote no JSON report")
endif()
# The last round's rows were streamed: header + data.
file(STRINGS ${WORK_DIR}/serve_rows.csv rows_lines)
list(LENGTH rows_lines rows_count)
if(rows_count LESS 2)
  message(FATAL_ERROR "serve-bench rows CSV is empty (${rows_count} lines)")
endif()

message(STATUS "serve smoke passed: zero torn reads, deterministic, "
               "${rows_count} row lines")
