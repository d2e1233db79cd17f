# bsched-fuzz's flags: every malformed or out-of-range numeric value and
# every retired flag exits 2, and well-formed values are accepted. Every
# call but the last ends in --help, so an accepted value prints the usage
# and exits 0 without starting a campaign, and a binary that accepted a bad
# value would do the same. The last call gives a --corpus directory that
# cannot be created, which must exit 2 before the campaign starts.
# Run by ctest as:
#   cmake -DFUZZ=<bsched-fuzz> -DSCRATCH=<a directory in the build tree>
#         -P fuzz_flags_test.cmake

# Fails the test unless `bsched-fuzz ARGS... --help` exits WANT.
function(expect_exit Want)
  execute_process(COMMAND "${FUZZ}" ${ARGN} --help
                  RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT Rc STREQUAL "${Want}")
    list(JOIN ARGN " " Args)
    message(SEND_ERROR "bsched-fuzz ${Args} --help: exit ${Rc}, want ${Want}")
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
expect_exit(2 --seed -1)

# Retired flags are unknown arguments.
expect_exit(2 --gap-pct 100)
expect_exit(2 --no-reduce)
expect_exit(2 --quiet)

expect_exit(0 --threads 1024)
expect_exit(0 --rounds 0)
expect_exit(0 --seconds 0.5)
expect_exit(0 --seed 18446744073709551615)

# A corpus path under a regular file cannot be created: usage error, with
# the path in the message.
file(MAKE_DIRECTORY "${SCRATCH}")
file(WRITE "${SCRATCH}/not-a-directory" "")
execute_process(COMMAND "${FUZZ}" --rounds 1 --jobs 1 --initial 1
                        --corpus "${SCRATCH}/not-a-directory/sub"
                RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_VARIABLE Err)
if(NOT Rc STREQUAL "2")
  message(SEND_ERROR "bsched-fuzz with an uncreatable --corpus: exit ${Rc}, "
                     "want 2")
elseif(NOT Err MATCHES "not-a-directory/sub")
  message(SEND_ERROR "bsched-fuzz with an uncreatable --corpus: the message "
                     "does not name the path: ${Err}")
endif()
