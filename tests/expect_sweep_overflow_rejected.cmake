# Writes specs whose grid sweeps have 63 and 64 two-value axes (2^63 points
# exceed what a vector can hold; 2^64 wrap a 64-bit size to 0) and checks
# that `rss_scenario --validate` reports each as a failed file — exit
# status 1 and a FAIL line naming sweep.axes — instead of crashing.
#
#   cmake -DRSS_SCENARIO=<rss_scenario> -DOUT_DIR=<scratch dir> -P expect_sweep_overflow_rejected.cmake
foreach(count 63 64)
  set(axes "")
  foreach(i RANGE 1 ${count})
    if(NOT axes STREQUAL "")
      string(APPEND axes ",\n")
    endif()
    string(APPEND axes "      {\"field\": \"seed\", \"values\": [1, 2]}")
  endforeach()
  set(spec "${OUT_DIR}/sweep_${count}_axes.json")
  file(WRITE ${spec} "{\n  \"nodes\": [\"a\", \"b\"],\n  \"links\": [{\"a\": \"a\", \"b\": \"b\"}],\n  \"sweep\": {\n    \"axes\": [\n${axes}\n    ]\n  }\n}\n")
  execute_process(COMMAND ${RSS_SCENARIO} --validate ${spec}
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT status EQUAL 1)
    message(FATAL_ERROR "${count} axes: expected exit status 1, got '${status}'\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  if(NOT out MATCHES "FAIL\n[^\n]*sweep\\.axes")
    message(FATAL_ERROR "${count} axes: expected a FAIL line naming sweep.axes, got:\n${out}")
  endif()
endforeach()
