# bsched-fuzz's numeric flags: every malformed or out-of-range value exits 2,
# and well-formed values are accepted. Every call ends in --help, so an
# accepted value prints the usage and exits 0 without starting a campaign,
# and a binary that accepted a bad value would do the same.
# Run by ctest as: cmake -DFUZZ=<bsched-fuzz> -P fuzz_flags_test.cmake

# Fails the test unless `bsched-fuzz FLAG VALUE --help` exits WANT.
function(expect_exit Want Flag Value)
  execute_process(COMMAND "${FUZZ}" ${Flag} "${Value}" --help
                  RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT Rc STREQUAL "${Want}")
    message(SEND_ERROR
            "bsched-fuzz ${Flag} '${Value}' --help: exit ${Rc}, want ${Want}")
  endif()
endfunction()

# --threads is 1 to 1024; 4294967297 would wrap to 1 through a 32-bit cast.
foreach(Value -1 0 1025 4294967297)
  expect_exit(2 --threads ${Value})
endforeach()
expect_exit(2 --jobs 4294967297)
expect_exit(2 --rounds -1)
expect_exit(2 --initial abc)
expect_exit(2 --seconds 5x)
expect_exit(2 --gap-pct -1)
expect_exit(2 --seed -1)

expect_exit(0 --threads 1024)
expect_exit(0 --rounds 0)
expect_exit(0 --seconds 0.5)
expect_exit(0 --seed 18446744073709551615)
