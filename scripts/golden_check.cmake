# Golden test for one figure harness: run it with fixed arguments and
# compare its stdout byte for byte with the committed table. The tables
# print states examined per heuristic and cell, so any change to search
# order, successor generation or a heuristic's value shows up here.
#
# Expected -D variables:
#   HARNESS - path to the harness binary
#   ARGS    - its arguments, space-separated (e.g. "--quick --budget=20000")
#   GOLDEN  - path to tests/golden/<harness>.txt
#   OUT     - where to write the actual stdout (left behind for diffing)
#
# To regenerate after an intended behaviour change, run the harness with
# the same ARGS and copy its stdout over the golden file.

foreach(var HARNESS ARGS GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_check: missing -D${var}")
  endif()
endforeach()

separate_arguments(harness_args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${HARNESS}" ${harness_args}
  RESULT_VARIABLE harness_rc
  OUTPUT_FILE "${OUT}"
  ERROR_VARIABLE harness_err
)
if(NOT harness_rc EQUAL 0)
  message(FATAL_ERROR
          "golden_check: harness failed (${harness_rc}):\n${harness_err}")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${OUT}"
  RESULT_VARIABLE compare_rc
)
if(NOT compare_rc EQUAL 0)
  file(READ "${OUT}" actual)
  message(FATAL_ERROR
          "golden_check: stdout differs from ${GOLDEN}\n"
          "actual output (also in ${OUT}):\n${actual}")
endif()
message(STATUS "golden_check: ${GOLDEN} matches")
