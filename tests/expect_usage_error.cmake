# Runs a command line that must be rejected as a usage error: exit status 2
# and a "usage:" line on stderr.
#
#   cmake -DCOMMAND="prog;--flag;value" -P expect_usage_error.cmake
execute_process(COMMAND ${COMMAND}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "expected exit status 2, got '${status}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "(^|\n)usage: ")
  message(FATAL_ERROR "expected a 'usage:' line on stderr, got:\n${err}")
endif()
