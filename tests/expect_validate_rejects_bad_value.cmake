# Writes a spec whose flow has "ack_every": 0, a value the TCP receiver
# refuses, and checks that `rss_scenario --validate` reports it as a failed
# file — exit status 1 and a FAIL line naming flows[0].receiver.ack_every —
# instead of passing a file that `--run` then rejects.
#
#   cmake -DRSS_SCENARIO=<rss_scenario> -DOUT_DIR=<output dir> -P expect_validate_rejects_bad_value.cmake
set(spec "${OUT_DIR}/ack_every_0.json")
file(WRITE ${spec} "{\n  \"nodes\": [\"a\", \"b\"],\n  \"links\": [{\"a\": \"a\", \"b\": \"b\"}],\n  \"flows\": [{\"src\": \"a\", \"dst\": \"b\", \"start\": \"0s\",\n             \"receiver\": {\"ack_every\": 0}}]\n}\n")
execute_process(COMMAND ${RSS_SCENARIO} --validate ${spec}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status EQUAL 1)
  message(FATAL_ERROR "expected exit status 1, got '${status}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT out MATCHES "FAIL\n[^\n]*flows\\[0\\]\\.receiver\\.ack_every")
  message(FATAL_ERROR "expected a FAIL line naming flows[0].receiver.ack_every, got:\n${out}")
endif()
