# The gate flags of bench_gap_oracle and bench_profile_estimator: every
# malformed value exits 2 before anything compiles, so a typo can never turn
# a CI gate off or into a different bound. Only rejections are checked: an
# accepted value would run the whole bench. bench_gap_oracle's retired
# --unroll (every compile unrolls by 4) is an unknown argument.
# The compile and sim trackers take no thread or scaling flag: their sweeps
# run up to one worker per hardware thread. Each call names a JSON path in
# the build tree first, so a tracker that accepted the flag would write its
# report there, not into the test's working directory.
# Run by ctest as:
#   cmake -DGAP=<bench_gap_oracle> -DPROFILE=<bench_profile_estimator>
#         -DCOMPILE=<bench_compile_throughput> -DSIM=<bench_sim_throughput>
#         -DJSON=<a file in the build tree> -P tracker_flags_test.cmake

# Fails the test unless `BENCH FLAG VALUE` exits 2.
function(expect_rejected Bench Flag Value)
  execute_process(COMMAND "${Bench}" ${Flag} "${Value}"
                  RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT Rc STREQUAL "2")
    message(SEND_ERROR "${Bench} ${Flag} '${Value}': exit ${Rc}, want 2")
  endif()
endfunction()

function(expect_all_rejected Value)
  expect_rejected("${GAP}" --min-closure "${Value}")
  expect_rejected("${PROFILE}" --min-speedup "${Value}")
  expect_rejected("${PROFILE}" --max-cycle-regress "${Value}")
endfunction()

foreach(Value abc 5x -1)
  expect_all_rejected(${Value})
endforeach()
expect_all_rejected("")
expect_rejected("${GAP}" --unroll 4)

# Fails the test unless `BENCH --json JSON ARGS...` exits 2.
function(expect_tracker_rejected Bench)
  execute_process(COMMAND "${Bench}" --json "${JSON}" ${ARGN}
                  RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT Rc STREQUAL "2")
    list(JOIN ARGN " " Args)
    message(SEND_ERROR "${Bench} ${Args}: exit ${Rc}, want 2")
  endif()
endfunction()

expect_tracker_rejected("${COMPILE}" --min-scale 4)
expect_tracker_rejected("${COMPILE}" --max-threads 8)
expect_tracker_rejected("${SIM}" --max-threads 8)
