# expect_exit.cmake -- run one command and require its exit code and a
# match in its stderr (and, if given, in its stdout): the ctest form of
# a CLI's usage-error contract, or of what a good run reports.
#
#   cmake -DPROG=<binary> -DARGS="<args>" -DEXIT=<code> -DMATCH=<regex>
#         [-DSTDOUT_MATCH=<regex>] -P expect_exit.cmake
if(NOT PROG OR NOT DEFINED EXIT OR NOT MATCH)
  message(FATAL_ERROR "need -DPROG=<binary>, -DEXIT=<code> and -DMATCH=<regex>")
endif()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${PROG} ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL EXIT OR NOT err MATCHES "${MATCH}")
  message(FATAL_ERROR "${PROG} ${ARGS}: expected exit ${EXIT} and stderr "
                      "matching '${MATCH}', got ${rc}:\n${err}")
endif()
if(STDOUT_MATCH AND NOT out MATCHES "${STDOUT_MATCH}")
  message(FATAL_ERROR "${PROG} ${ARGS}: expected stdout matching "
                      "'${STDOUT_MATCH}', got:\n${out}")
endif()
