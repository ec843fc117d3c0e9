# replay_smoke.cmake -- end-to-end record/replay/fuzz check over the
# dash_lab CLI, run as a ctest.
# Asserts the replay subsystem's user-facing contract: a recorded run
# replays bit-identically, a broken invariant is reported with a
# non-zero exit, and the fuzzer turns an injected failure mode into a
# shrunken repro trace that reproduces standalone via `dash_lab replay`.
#
#   cmake -DDASH_LAB=<path> -DWORK_DIR=<scratch dir> -P replay_smoke.cmake
if(NOT DASH_LAB OR NOT WORK_DIR)
  message(FATAL_ERROR "need -DDASH_LAB=<binary> and -DWORK_DIR=<dir>")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

function(run_lab)
  execute_process(COMMAND ${DASH_LAB} ${ARGN}
                  RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "dash_lab ${ARGN} failed (${rc}):\n${err}")
  endif()
endfunction()

# Runs dash_lab expecting a non-zero exit; stores stderr in ${out_var}.
function(run_lab_expect_fail out_var)
  execute_process(COMMAND ${DASH_LAB} ${ARGN}
                  RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "dash_lab ${ARGN} unexpectedly succeeded")
  endif()
  set(${out_var} "${err}" PARENT_SCOPE)
endfunction()

# 1. Record a paper-churn run and replay it strictly: digests, event
#    counts, and footer metrics must all verify (exit 0).
run_lab(record --trace ${WORK_DIR}/run.trace
        --family ba --n 64 --ba-edges 2
        --healer dash --scenario paper-churn --seed 7)
run_lab(replay --trace ${WORK_DIR}/run.trace)

# 2. Replaying the same deletion schedule with healing disabled must
#    report an invariant violation and exit non-zero.
run_lab_expect_fail(noheal_err replay --trace ${WORK_DIR}/run.trace
                    --healer none --lenient --invariants)
if(NOT noheal_err MATCHES "invariant violation")
  message(FATAL_ERROR "no-heal replay did not report a violation:\n${noheal_err}")
endif()

# 3. Differential fuzz across the paper's healers: mutated traces must
#    replay cleanly under every strategy (any violation is a real bug).
run_lab(fuzz --trace ${WORK_DIR}/run.trace --mutants 4 --seed 5)

# 4. Fuzz with an injected failure mode (healing off): failures must be
#    found, shrunk, and persisted as repro traces in --repro-dir.
run_lab_expect_fail(fuzz_err fuzz --trace ${WORK_DIR}/run.trace
                    --mutants 5 --seed 3 --healers none
                    --repro-dir ${WORK_DIR}/repro)
file(GLOB repros ${WORK_DIR}/repro/repro_*.trace)
list(LENGTH repros n_repros)
if(n_repros EQUAL 0)
  message(FATAL_ERROR "fuzz reported failures but wrote no repro traces:\n${fuzz_err}")
endif()

# 5. Every persisted repro reproduces standalone: `dash_lab replay`
#    on it (no extra flags beyond the recorded lenient context) fails.
foreach(repro ${repros})
  run_lab_expect_fail(repro_err replay --trace ${repro}
                      --lenient --invariants)
  if(NOT repro_err MATCHES "invariant violation|diverged")
    message(FATAL_ERROR "repro ${repro} did not reproduce:\n${repro_err}")
  endif()
endforeach()

# 6. At twice the size: a 128-node paper-churn run replays
#    bit-identically, and ten mutants replay cleanly under every paper
#    healer.
run_lab(record --trace ${WORK_DIR}/run128.trace --family ba --n 128
        --healer dash --scenario paper-churn --seed 7)
run_lab(replay --trace ${WORK_DIR}/run128.trace)
run_lab(fuzz --trace ${WORK_DIR}/run128.trace --mutants 10 --seed 5
        --repro-dir ${WORK_DIR}/repro128)

message(STATUS "replay record/replay/fuzz smoke OK (${n_repros} repros reproduced)")
