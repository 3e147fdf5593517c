# End-to-end smoke test for the tupelo_cli example: a discovery, the
# documented per-StopReason exit codes, usage errors (malformed numeric
# flags and a thread count above the cap among them), a resume from a missing checkpoint, and --apply. The
# .tdb inputs are written into WORK_DIR, so the test reads nothing from
# the source tree.
#
# Expected -D variables:
#   CLI      - path to the tupelo_cli binary
#   WORK_DIR - scratch directory for the inputs (wiped before the run)

foreach(var CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_smoke: missing -D${var}")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(source "${WORK_DIR}/source.tdb")
set(target "${WORK_DIR}/target.tdb")
set(renamed "relation R (C, D) {\n  (1, x)\n  (2, y)\n}\n")
file(WRITE "${source}" "relation R (A, B) {\n  (1, x)\n  (2, y)\n}\n")
file(WRITE "${target}" "${renamed}")
# No operator produces a constant column, so a depth-bounded search for
# this target stops on the bound.
set(constant "${WORK_DIR}/target_constant.tdb")
file(WRITE "${constant}"
     "relation R (C, D, Z) {\n  (1, x, k)\n  (2, y, k)\n}\n")

# Runs tupelo_cli with ARGN, fails unless it exits with `expected_rc`,
# and returns its stdout in `out_var`.
function(run_cli name expected_rc out_var)
  execute_process(
    COMMAND "${CLI}" ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
  )
  if(NOT rc EQUAL expected_rc)
    message(FATAL_ERROR
            "cli_smoke: ${name}: exit ${rc}, expected ${expected_rc}\n"
            "${out}\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Fails unless `text` contains `needle`.
function(expect_output name text needle)
  string(FIND "${text}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "cli_smoke: ${name}: output lacks \"${needle}\":\n${text}")
  endif()
endfunction()

run_cli("discover" 0 out "${source}" "${target}")
expect_output("discover" "${out}" "rename_att(R, A, C)\nrename_att(R, B, D)\n")

run_cli("state budget" 8 out "${source}" "${target}" --max-states=1)
run_cli("depth bound" 9 out "${source}" "${constant}" --max-depth=3)
run_cli("unknown flag" 2 out "${source}" "${target}" --no-such-flag)
run_cli("--portfolio" 2 out "${source}" "${target}" --portfolio)
run_cli("non-numeric --max-states" 2 out "${source}" "${target}"
        --max-states=abc)
run_cli("out-of-range --max-depth" 2 out "${source}" "${target}"
        --max-depth=99999999999)
run_cli("negative --beam-width" 2 out "${source}" "${target}" --algo=beam
        --beam-width=-1 --max-states=100)
# Pools live until the process exits, so --threads is capped at
# kMaxThreads (256).
run_cli("--threads above the cap" 2 out "${source}" "${target}" --algo=beam
        --threads=257)

set(checkpoint "${WORK_DIR}/never_written.tck")
run_cli("resume from a missing checkpoint" 0 out "${source}" "${target}"
        "--checkpoint=${checkpoint}" --resume)

run_cli("apply" 0 out "${source}" "${target}" --apply)
expect_output("apply" "${out}" "${renamed}")

message(STATUS "cli_smoke: all cases passed")
