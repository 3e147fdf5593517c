# Fails unless a bench harness, given one malformed or out-of-range
# numeric flag, exits 2 with its usage line instead of running with a
# misread value (--budget=abc once ran with budget 0, --threads=-1 with
# 2^64-1 threads).
#
# Expected -D variables:
#   HARNESS - path to a harness that parses its flags with ParseBenchArgs

if(NOT DEFINED HARNESS)
  message(FATAL_ERROR "bench_flags: missing -DHARNESS")
endif()

foreach(flag --budget=abc --threads=-1 --threads=257)
  execute_process(
    COMMAND "${HARNESS}" --quick "${flag}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 60
  )
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "bench_flags: ${flag}: exit ${rc}, expected 2\n"
                        "${out}\n${err}")
  endif()
  string(FIND "${err}" "usage: " at)
  if(at EQUAL -1)
    message(FATAL_ERROR "bench_flags: ${flag}: no usage line:\n${err}")
  endif()
  message(STATUS "bench_flags: ${flag} exits 2")
endforeach()
