# Runs BIN with the ;-separated ARGS and passes only when it exits 2 and
# prints its usage text — a malformed flag value must stop a driver, not
# run it on a silently substituted value.
#   cmake -DBIN=<binary> -DARGS=<args> -P expect_usage_error.cmake
execute_process(COMMAND ${BIN} ${ARGS}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err
  TIMEOUT 60)
if(NOT code STREQUAL "2" OR NOT err MATCHES "usage:")
  message(FATAL_ERROR
    "expected exit 2 with the usage text, got '${code}'\n${out}${err}")
endif()
