# dash_lab_smoke.cmake -- end-to-end shard/merge identity check, run as
# a ctest. Drives the dash_lab binary through the sequential, the
# multi-threaded and the sharded path over one tiny grid and over the
# paper sweep spec, and asserts the exp layer's core guarantee: the
# document and rows CSV of any partition of the cells, run on any number
# of threads, are byte-identical to the single-process sequential run,
# also after interrupted shards are resumed.
#
#   cmake -DDASH_LAB=<path> -DSPEC=<examples/paper_sweep.spec>
#         -DWORK_DIR=<scratch dir> -P dash_lab_smoke.cmake
if(NOT DASH_LAB OR NOT SPEC OR NOT WORK_DIR)
  message(FATAL_ERROR
          "need -DDASH_LAB=<binary>, -DSPEC=<spec file> and -DWORK_DIR=<dir>")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

set(GRID "name=smoke n=24|32 healer=dash|graph scenario=paper-churn|until-quarter instances=2 seed=11")

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

# The call must be rejected as a usage error (exit 2) naming `flag`.
function(expect_usage_error flag)
  execute_process(COMMAND ${DASH_LAB} ${ARGN}
                  RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "${flag}")
    message(FATAL_ERROR
            "dash_lab ${ARGN}: expected exit 2 naming ${flag}, got ${rc}:\n${err}")
  endif()
endfunction()

# 1. Single-process sequential reference (document + rows).
run_lab(run --grid ${GRID} --threads 1 --quiet --json ${WORK_DIR}/seq.json
        --rows ${WORK_DIR}/seq_rows.csv)

# 2. The whole grid on four threads: cells and their instances share
#    one pool and finish out of order, yet the document and rows are
#    the sequential bytes.
run_lab(run --grid ${GRID} --threads 4 --quiet --json ${WORK_DIR}/pooled.json
        --rows ${WORK_DIR}/pooled_rows.csv)
assert_same(${WORK_DIR}/seq.json ${WORK_DIR}/pooled.json
            "--threads 4 document vs sequential")
assert_same(${WORK_DIR}/seq_rows.csv ${WORK_DIR}/pooled_rows.csv
            "--threads 4 rows vs sequential")

# 3. Two single-shard invocations (the distributed path, driven by
#    hand) + merge.
run_lab(run --grid ${GRID} --shard 0/2 --threads 1 --quiet
        --out ${WORK_DIR}/s0.jsonl --rows ${WORK_DIR}/s0_rows.csv)
run_lab(run --grid ${GRID} --shard 1/2 --threads 1 --quiet
        --out ${WORK_DIR}/s1.jsonl --rows ${WORK_DIR}/s1_rows.csv)
run_lab(merge --grid ${GRID}
        --inputs ${WORK_DIR}/s0.jsonl,${WORK_DIR}/s1.jsonl
        --quiet --json ${WORK_DIR}/merged.json)
assert_same(${WORK_DIR}/seq.json ${WORK_DIR}/merged.json
            "2-shard merge vs sequential")

# 4. Resume after an interrupted write and a lost shard: chop shard 0's
#    final record mid-line (no trailing newline) and delete shard 1.
#    Rerunning both shards with --resume recomputes only the truncated
#    cell and shard 1's cells, keeps the other cells' records and rows,
#    and the merged document and rows still match.
file(READ ${WORK_DIR}/s0.jsonl shard0)
string(LENGTH "${shard0}" shard0_len)
math(EXPR cut "${shard0_len} - 25")
string(SUBSTRING "${shard0}" 0 ${cut} shard0)
file(WRITE ${WORK_DIR}/s0.jsonl "${shard0}")
file(REMOVE ${WORK_DIR}/s1.jsonl)
execute_process(COMMAND ${DASH_LAB} run --grid ${GRID} --shard 0/2
                --threads 1 --resume
                --out ${WORK_DIR}/s0.jsonl --rows ${WORK_DIR}/s0_rows.csv
                RESULT_VARIABLE rc ERROR_VARIABLE err)
string(REGEX MATCHALL " n=[0-9]+ healer=" recomputed "${err}")  # one per cell
list(LENGTH recomputed recomputed)
if(NOT rc EQUAL 0 OR NOT recomputed EQUAL 1)
  message(FATAL_ERROR "shard 0 resume must recompute only its truncated "
                      "cell (exit ${rc}, ${recomputed} cells):\n${err}")
endif()
run_lab(run --grid ${GRID} --shard 1/2 --threads 1 --resume --quiet
        --out ${WORK_DIR}/s1.jsonl --rows ${WORK_DIR}/s1_rows.csv)
run_lab(merge --grid ${GRID}
        --inputs ${WORK_DIR}/s0.jsonl,${WORK_DIR}/s1.jsonl
        --rows-inputs ${WORK_DIR}/s0_rows.csv,${WORK_DIR}/s1_rows.csv
        --rows ${WORK_DIR}/resumed_rows.csv
        --quiet --json ${WORK_DIR}/resumed.json)
assert_same(${WORK_DIR}/seq.json ${WORK_DIR}/resumed.json
            "resumed shards (truncated + deleted) vs sequential")
assert_same(${WORK_DIR}/seq_rows.csv ${WORK_DIR}/resumed_rows.csv
            "resumed shards' merged rows vs sequential")

# 5. The same resume on four threads: shard 0 is run afresh, then cut
#    to its first record plus a torn head of the second, so the resume
#    recomputes three cells at once behind a kept one; merged with
#    shard 1, document and rows still match.
run_lab(run --grid ${GRID} --shard 0/2 --threads 4 --quiet
        --out ${WORK_DIR}/p0.jsonl --rows ${WORK_DIR}/p0_rows.csv)
file(READ ${WORK_DIR}/p0.jsonl pooled0)
string(FIND "${pooled0}" "\n" eol)
math(EXPR keep "${eol} + 41")
string(SUBSTRING "${pooled0}" 0 ${keep} pooled0)
file(WRITE ${WORK_DIR}/p0.jsonl "${pooled0}")
execute_process(COMMAND ${DASH_LAB} run --grid ${GRID} --shard 0/2
                --threads 4 --resume
                --out ${WORK_DIR}/p0.jsonl --rows ${WORK_DIR}/p0_rows.csv
                RESULT_VARIABLE rc ERROR_VARIABLE err)
string(REGEX MATCHALL " n=[0-9]+ healer=" recomputed "${err}")
list(LENGTH recomputed recomputed)
if(NOT rc EQUAL 0 OR NOT recomputed EQUAL 3)
  message(FATAL_ERROR "--threads 4 resume must recompute the three "
                      "dropped cells (exit ${rc}, ${recomputed} cells):\n${err}")
endif()
run_lab(merge --grid ${GRID}
        --inputs ${WORK_DIR}/p0.jsonl,${WORK_DIR}/s1.jsonl
        --rows-inputs ${WORK_DIR}/p0_rows.csv,${WORK_DIR}/s1_rows.csv
        --rows ${WORK_DIR}/pooled_resumed_rows.csv
        --quiet --json ${WORK_DIR}/pooled_resumed.json)
assert_same(${WORK_DIR}/seq.json ${WORK_DIR}/pooled_resumed.json
            "--threads 4 resumed shard vs sequential")
assert_same(${WORK_DIR}/seq_rows.csv ${WORK_DIR}/pooled_resumed_rows.csv
            "--threads 4 resumed shard's merged rows vs sequential")

# 6. Flags that would do nothing are usage errors: --resume has no
#    manifest to read without --out, and merge --rows has nothing to
#    merge without --rows-inputs.
expect_usage_error("--out" run --grid ${GRID} --resume --quiet
                   --json ${WORK_DIR}/no_manifest.json)
expect_usage_error("--rows-inputs" merge --grid ${GRID}
                   --inputs ${WORK_DIR}/s0.jsonl,${WORK_DIR}/s1.jsonl
                   --rows ${WORK_DIR}/no_rows.csv --quiet
                   --json ${WORK_DIR}/no_rows.json)

# 7. The paper sweep spec file: four threads and a 2-shard merge give
#    the sequential document.
run_lab(run --spec ${SPEC} --threads 1 --quiet --json ${WORK_DIR}/paper.json)
run_lab(run --spec ${SPEC} --threads 4 --quiet
        --json ${WORK_DIR}/paper_pooled.json)
assert_same(${WORK_DIR}/paper.json ${WORK_DIR}/paper_pooled.json
            "paper sweep --threads 4 vs sequential")
run_lab(run --spec ${SPEC} --shard 0/2 --threads 1 --quiet
        --out ${WORK_DIR}/paper_s0.jsonl)
run_lab(run --spec ${SPEC} --shard 1/2 --threads 1 --quiet
        --out ${WORK_DIR}/paper_s1.jsonl)
run_lab(merge --spec ${SPEC}
        --inputs ${WORK_DIR}/paper_s0.jsonl,${WORK_DIR}/paper_s1.jsonl
        --quiet --json ${WORK_DIR}/paper_merged.json)
assert_same(${WORK_DIR}/paper.json ${WORK_DIR}/paper_merged.json
            "paper sweep 2-shard merge vs sequential")

message(STATUS "dash_lab shard/merge identity OK")
