# Runs the tdfs CLI with malformed and out-of-range numeric flags and
# expects each run to exit with status 1 and an "error: " line on stderr,
# never an abort or an uncaught exception.
#
#   cmake -DTDFS_CLI=/path/to/tdfs -DWORK_DIR=/tmp/dir \
#         -P tests/cli_bad_flags_test.cmake

set(graph "${WORK_DIR}/cli_bad_flags_graph.txt")
set(queries "${WORK_DIR}/cli_bad_flags_queries.txt")
execute_process(
  COMMAND "${TDFS_CLI}" generate --type er --vertices 40 --edges 80
          --out "${graph}"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tdfs generate failed: ${rc}")
endif()
file(WRITE "${queries}" "P1\n")

function(expect_clean_error)
  execute_process(
    COMMAND "${TDFS_CLI}" ${ARGN}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc STREQUAL "1" OR NOT err MATCHES "error: ")
    message(FATAL_ERROR
            "tdfs ${ARGN}: want exit 1 with an error line, got "
            "'${rc}': ${err}")
  endif()
endfunction()

set(match match --graph "${graph}" --pattern P1)
expect_clean_error(${match} --warps abc)
expect_clean_error(${match} --warps 0)
expect_clean_error(${match} --warps -2)
expect_clean_error(${match} --warps 4x)
expect_clean_error(${match} --devices 0)
expect_clean_error(${match} --tau 1ms)
expect_clean_error(batch --graph "${graph}" --queries "${queries}"
                   --workers 0)
