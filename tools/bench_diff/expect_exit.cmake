# Runs bench_diff on two fixture artifacts and fails unless it exits with
# EXPECTED_EXIT. Usage (as a ctest command):
#   cmake -DBENCH_DIFF=<bench_diff> -DBASELINE=<json> -DCURRENT=<json>
#         -DMETRIC=<KEY:lower|higher> -DEXPECTED_EXIT=<code>
#         -P expect_exit.cmake
execute_process(
  COMMAND "${BENCH_DIFF}" --tolerance=9.0 "--metric=${METRIC}"
          "${BASELINE}" "${CURRENT}"
  RESULT_VARIABLE exit_code)
if(NOT exit_code STREQUAL "${EXPECTED_EXIT}")
  message(FATAL_ERROR
          "bench_diff exited ${exit_code}, expected ${EXPECTED_EXIT}")
endif()
