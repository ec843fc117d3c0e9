# fleet_smoke.cmake -- end-to-end smoke of the dash::fleet service, run
# as a ctest (and by the CI fleet-smoke job). A coordinator serves a
# tiny grid to local agent processes, agent 0 armed with --chaos
# kill:<cell>: the serve must exit 0 and its merged BENCH document AND
# rows CSV must be byte-identical to the undisturbed sequential run. A
# second round checkpoints the coordinator mid-grid (--stop-after,
# exit code 3) and resumes it from the spool manifest to the same
# bytes.
#
# This script checks byte identity, not the crash: agent 0 dies only
# when it happens to lease the armed cell, which depends on scheduling.
# The deterministic crash evidence (an agent killed before its RESULT
# or mid-frame, the cell reassigned, the same bytes) is
# FleetDeathTest's, in tests/fleet/fleet_test.cpp.
#
#   cmake -DDASH_LAB=<path> -DWORK_DIR=<scratch dir> -P fleet_smoke.cmake
if(NOT DASH_LAB OR NOT WORK_DIR)
  message(FATAL_ERROR "need -DDASH_LAB=<binary> and -DWORK_DIR=<dir>")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

set(GRID "name=fleet n=24|32 healer=dash|graph scenario=paper-churn instances=2 seed=11")

function(run_lab)
  execute_process(COMMAND ${DASH_LAB} ${ARGN}
                  RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "dash_lab ${ARGN} failed (${rc}):\n${err}")
  endif()
endfunction()

function(assert_same a b what)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
                  RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "${what}: ${a} and ${b} differ")
  endif()
endfunction()

# 1. Undisturbed single-process reference (document + rows).
run_lab(run --grid ${GRID} --threads 1 --quiet
        --json ${WORK_DIR}/seq.json --rows ${WORK_DIR}/seq_rows.csv)

# 2. Fleet run: coordinator + 3 local agents, agent 0 armed to die
#    after streaming cell 1's rows but before its RESULT, should it
#    lease cell 1. Either way the serve must succeed with the exact
#    sequential bytes.
run_lab(serve --grid ${GRID} --agents 3 --threads 1 --chaos kill:1
        --state-dir ${WORK_DIR}/chaos_state --quiet
        --json ${WORK_DIR}/fleet.json --rows ${WORK_DIR}/fleet_rows.csv)
assert_same(${WORK_DIR}/seq.json ${WORK_DIR}/fleet.json
            "fleet-with-armed-agent document vs sequential")
assert_same(${WORK_DIR}/seq_rows.csv ${WORK_DIR}/fleet_rows.csv
            "fleet-with-armed-agent rows vs sequential")

# 3. Checkpoint: stop the coordinator after 3 committed cells. The
#    distinct exit code 3 says "incomplete by design, spool is the
#    checkpoint".
execute_process(COMMAND ${DASH_LAB} serve --grid ${GRID} --agents 2
                --threads 1 --stop-after 3
                --state-dir ${WORK_DIR}/ckpt_state --quiet
                --json ${WORK_DIR}/ckpt.json
                --rows ${WORK_DIR}/ckpt_rows.csv
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR
          "serve --stop-after 3 exited ${rc}, expected checkpoint code 3:\n${err}")
endif()

# 4. Resume from the spool manifest: only the missing cells are
#    recomputed; document and rows must match the sequential run.
run_lab(serve --grid ${GRID} --agents 2 --threads 1 --resume
        --state-dir ${WORK_DIR}/ckpt_state --quiet
        --json ${WORK_DIR}/resumed.json
        --rows ${WORK_DIR}/resumed_rows.csv)
assert_same(${WORK_DIR}/seq.json ${WORK_DIR}/resumed.json
            "resumed-serve document vs sequential")
assert_same(${WORK_DIR}/seq_rows.csv ${WORK_DIR}/resumed_rows.csv
            "resumed-serve rows vs sequential")

message(STATUS "fleet serve/agent chaos + checkpoint identity OK")
