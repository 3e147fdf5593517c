# Runs equivalence_fuzz in its default configuration, the acceptance gate
# for fira/compile.cc, once per seed. Fails on the first seed that reports
# a divergence; the fuzzer prints a replayable description to stderr.
#
# Expected -D variables:
#   FUZZ  - path to the equivalence_fuzz binary
#   SEEDS - comma-separated seeds (e.g. "2006,1,2,3")

foreach(var FUZZ SEEDS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "equivalence_smoke: missing -D${var}")
  endif()
endforeach()

string(REPLACE "," ";" seeds "${SEEDS}")
foreach(seed IN LISTS seeds)
  execute_process(COMMAND "${FUZZ}" --seed=${seed} RESULT_VARIABLE fuzz_rc)
  if(NOT fuzz_rc EQUAL 0)
    message(FATAL_ERROR
            "equivalence_smoke: equivalence_fuzz --seed=${seed} failed "
            "(${fuzz_rc})")
  endif()
endforeach()
