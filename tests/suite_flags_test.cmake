# bsched-suite's numeric flags: every malformed value exits 2 before any
# table runs, and well-formed values (CI's among them) are accepted. --list
# comes first, so a binary that accepted a bad value would exit 0 without
# starting a pool.
# Run by ctest as: cmake -DSUITE=<bsched-suite> -P suite_flags_test.cmake

# Fails the test unless `bsched-suite --list FLAG VALUE` exits WANT.
function(expect_exit Want Flag Value)
  execute_process(COMMAND "${SUITE}" --list ${Flag} "${Value}"
                  RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT Rc STREQUAL "${Want}")
    message(SEND_ERROR
            "bsched-suite --list ${Flag} '${Value}': exit ${Rc}, want ${Want}")
  endif()
endfunction()

foreach(Flag --threads --min-warm-speedup --min-disk-hit-rate)
  foreach(Value -1 abc 5x)
    expect_exit(2 ${Flag} ${Value})
  endforeach()
  expect_exit(2 ${Flag} "")
endforeach()
expect_exit(2 --min-disk-hit-rate 1.5)
# The worker ceiling; behind --list, no pool starts.
expect_exit(2 --threads 1025)
expect_exit(2 --threads 100000)

expect_exit(0 --threads 0)
expect_exit(0 --threads 4)
expect_exit(0 --threads 1024)
expect_exit(0 --min-warm-speedup 5)
expect_exit(0 --min-disk-hit-rate 0.99)
expect_exit(0 --min-disk-hit-rate 1)
