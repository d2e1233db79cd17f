# bsched-suite's flags: every malformed --threads value exits 2 before any
# table runs, well-formed values are accepted, and the retired ratio gates
# are unknown arguments. --list comes first, so a binary that accepted a
# bad value would exit 0 without starting a pool. One --measure run of a
# small table checks that the warm pass is served from the store.
# Run by ctest as:
#   cmake -DSUITE=<bsched-suite> -DSTORE=<store dir> -P suite_flags_test.cmake

# Fails the test unless `bsched-suite --list FLAG VALUE` exits WANT.
function(expect_exit Want Flag Value)
  execute_process(COMMAND "${SUITE}" --list ${Flag} "${Value}"
                  RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT Rc STREQUAL "${Want}")
    message(SEND_ERROR
            "bsched-suite --list ${Flag} '${Value}': exit ${Rc}, want ${Want}")
  endif()
endfunction()

foreach(Value -1 abc 5x)
  expect_exit(2 --threads ${Value})
endforeach()
expect_exit(2 --threads "")
# The worker ceiling; behind --list, no pool starts.
expect_exit(2 --threads 1025)
expect_exit(2 --threads 100000)

expect_exit(0 --threads 0)
expect_exit(0 --threads 4)
expect_exit(0 --threads 1024)

# The cold/warm ratio and hit-rate floors gave way to --measure's all-hit
# gate.
expect_exit(2 --min-warm-speedup 5)
expect_exit(2 --min-disk-hit-rate 0.99)

# A cold pass fills a fresh store, and the warm pass must be served from it.
file(REMOVE_RECURSE "${STORE}")
execute_process(COMMAND "${SUITE}" --tables table1_workload --measure
                        --store "${STORE}"
                RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_VARIABLE Err)
if(NOT Rc STREQUAL "0")
  message(SEND_ERROR "bsched-suite --measure: exit ${Rc}, want 0\n${Err}")
endif()
file(REMOVE_RECURSE "${STORE}")
