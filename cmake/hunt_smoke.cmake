# hunt_smoke.cmake -- end-to-end adversary-search check over the
# dash_lab CLI, run as a ctest. Asserts the hunt subsystem's
# user-facing contract: a tiny-budget evolutionary hunt beats the
# random baseline at the same budget and seed, the winning schedule is
# emitted as a trace that replays bit-identically standalone, that
# trace round-trips through a `dash_lab run` grid cell reproducing the
# scored run's bytes, and `--resume` refuses a spool damaged before its
# last line but recovers from a torn final line.
#
#   cmake -DDASH_LAB=<path> -DWORK_DIR=<scratch dir> -P hunt_smoke.cmake
if(NOT DASH_LAB OR NOT WORK_DIR)
  message(FATAL_ERROR "need -DDASH_LAB=<binary> and -DWORK_DIR=<dir>")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# One hunt target for everything below; the combo fitness keeps scores
# fractional so strategies separate cleanly.
set(TARGET --family ba --n 48 --healers capped:2 --instances 2
    --fitness combo:1,0.25,2 --budget 60 --seed 5 --threads 1 --quiet)

function(run_lab out_var)
  execute_process(COMMAND ${DASH_LAB} ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "dash_lab ${ARGN} failed (${rc}):\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Extracts the first run object of the document's first group: the
# instance-0 metrics the trace round-trip must reproduce byte for byte.
function(first_run out_var json_path)
  file(READ ${json_path} doc)
  string(REGEX MATCH "\"runs\":\\[{[^}]*}" run "${doc}")
  if(NOT run)
    message(FATAL_ERROR "${json_path} has no runs array")
  endif()
  set(${out_var} "${run}" PARENT_SCOPE)
endfunction()

# 1. Evolutionary hunt vs the random baseline, same budget, same seed.
run_lab(evolve_out hunt --name smoke --strategy evolve:8 ${TARGET}
        --state-dir ${WORK_DIR}/evolve)
run_lab(random_out hunt --name smoke --strategy random ${TARGET}
        --state-dir ${WORK_DIR}/random)
string(REGEX MATCH "best fitness=([0-9.]+)" _ "${evolve_out}")
set(evolve_fit ${CMAKE_MATCH_1})
string(REGEX MATCH "best fitness=([0-9.]+)" _ "${random_out}")
set(random_fit ${CMAKE_MATCH_1})
if(NOT evolve_fit GREATER random_fit)
  message(FATAL_ERROR "evolve (${evolve_fit}) did not beat random "
                      "(${random_fit}) at equal budget")
endif()

# 2. The winner's trace replays bit-identically standalone.
string(REGEX MATCH "trace: ([^\n]+best1\\.trace)" _ "${evolve_out}")
set(best_trace ${CMAKE_MATCH_1})
if(NOT best_trace)
  message(FATAL_ERROR "hunt did not report a best1 trace:\n${evolve_out}")
endif()
run_lab(replay_out replay --trace ${best_trace})

# 3. Grid round-trip: loaded back via scenario=trace:<file> with the
#    hunt's base seed, the cell's instance-0 run reproduces the scored
#    run's bytes exactly.
run_lab(grid_out run
        --grid "name=smoke family=ba n=48 healer=capped:2 scenario=trace:${best_trace} instances=1 seed=5 stretch_every=8"
        --threads 1 --quiet --json ${WORK_DIR}/roundtrip.json)
first_run(hunted ${WORK_DIR}/evolve/HUNT_smoke.json)
first_run(replayed ${WORK_DIR}/roundtrip.json)
if(NOT hunted STREQUAL replayed)
  message(FATAL_ERROR "grid-cell trace replay diverged from the scored "
                      "run:\nhunt:   ${hunted}\nreplay: ${replayed}")
endif()

# 4. list-cells --json emits the machine-readable enumeration.
run_lab(cells_out list-cells
        --grid "name=smoke family=ba n=48 healer=capped:2 scenario=paper-churn instances=1 seed=5"
        --json)
if(NOT cells_out MATCHES "\"cells\":\\[{\"index\":0,")
  message(FATAL_ERROR "list-cells --json output malformed:\n${cells_out}")
endif()

# 5. Resume from a damaged spool. A torn line before the last one is
#    corruption: the hunt exits 2 naming the line, and leaves the
#    spool alone. A torn final line (an interrupted write) is dropped
#    and recomputed: the leaderboard comes out byte-identical.
set(spool_path ${WORK_DIR}/evolve/spool.tsv)
file(READ ${spool_path} spool)
file(READ ${WORK_DIR}/evolve/HUNT_smoke.json evolve_board)
string(LENGTH "${spool}" spool_len)
math(EXPR body_len "${spool_len} - 1")  # drop the trailing newline
string(SUBSTRING "${spool}" 0 ${body_len} body)
string(FIND "${body}" "\n" last_nl REVERSE)
math(EXPR torn_len "${last_nl} - 7")  # inside the next-to-last record
string(SUBSTRING "${body}" 0 ${torn_len} torn_head)
math(EXPR last_start "${last_nl} + 1")
string(SUBSTRING "${body}" ${last_start} -1 last_line)
file(WRITE ${spool_path} "${torn_head}\n${last_line}\n")
execute_process(COMMAND ${DASH_LAB} hunt --name smoke --strategy evolve:8
                        ${TARGET} --state-dir ${WORK_DIR}/evolve --resume
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "bad record on line [0-9]+")
  message(FATAL_ERROR "resume over a torn middle spool line: expected "
                      "exit 2 naming the line, got ${rc}:\n${err}")
endif()
math(EXPR tail_len "${spool_len} - 40")
string(SUBSTRING "${spool}" 0 ${tail_len} torn_tail)
file(WRITE ${spool_path} "${torn_tail}")
run_lab(resume_out hunt --name smoke --strategy evolve:8 ${TARGET}
        --state-dir ${WORK_DIR}/evolve --resume)
file(READ ${WORK_DIR}/evolve/HUNT_smoke.json resumed_board)
if(NOT resumed_board STREQUAL evolve_board)
  message(FATAL_ERROR "resume over a torn final spool line changed the "
                      "leaderboard")
endif()

message(STATUS "hunt smoke OK (evolve ${evolve_fit} > random ${random_fit})")
