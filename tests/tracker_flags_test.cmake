# The gate flags of bench_gap_oracle and bench_profile_estimator: every
# malformed value exits 2 before anything compiles, so a typo can never turn
# a CI gate off or into a different bound. Only rejections are checked: an
# accepted value would run the whole bench.
# Run by ctest as:
#   cmake -DGAP=<bench_gap_oracle> -DPROFILE=<bench_profile_estimator>
#         -P tracker_flags_test.cmake

# Fails the test unless `BENCH FLAG VALUE` exits 2.
function(expect_rejected Bench Flag Value)
  execute_process(COMMAND "${Bench}" ${Flag} "${Value}"
                  RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT Rc STREQUAL "2")
    message(SEND_ERROR "${Bench} ${Flag} '${Value}': exit ${Rc}, want 2")
  endif()
endfunction()

function(expect_all_rejected Value)
  expect_rejected("${GAP}" --unroll "${Value}")
  expect_rejected("${GAP}" --min-closure "${Value}")
  expect_rejected("${PROFILE}" --min-speedup "${Value}")
  expect_rejected("${PROFILE}" --max-cycle-regress "${Value}")
endfunction()

foreach(Value abc 5x -1)
  expect_all_rejected(${Value})
endforeach()
expect_all_rejected("")
