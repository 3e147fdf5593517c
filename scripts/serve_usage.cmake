# Fails unless tupelo_serve, started with FLAG (plus an ephemeral port and
# a scratch journal), exits 2 with its usage line instead of serving. A
# daemon that starts anyway never exits on its own; the run is killed
# after a few seconds and the case fails.
#
# Expected -D variables:
#   SERVE_BIN   - path to the tupelo_serve binary
#   FLAG        - the flag under test, e.g. --workers=abc
#   JOURNAL_DIR - scratch journal directory (wiped before the run)

foreach(var SERVE_BIN FLAG JOURNAL_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "serve_usage: missing -D${var}")
  endif()
endforeach()

file(REMOVE_RECURSE "${JOURNAL_DIR}")
execute_process(
  COMMAND "${SERVE_BIN}" --port=0 "--journal-dir=${JOURNAL_DIR}" "${FLAG}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 5
)
file(REMOVE_RECURSE "${JOURNAL_DIR}")
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "serve_usage: ${FLAG}: exit ${rc}, expected 2\n"
                      "${out}\n${err}")
endif()
string(FIND "${err}" "usage: tupelo_serve" at)
if(at EQUAL -1)
  message(FATAL_ERROR "serve_usage: ${FLAG}: no usage line:\n${err}")
endif()
message(STATUS "serve_usage: ${FLAG} exits 2")
