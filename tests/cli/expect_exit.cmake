# CLI rejection check: run a tool on bad input and require both its exit
# code and a stderr message matching a regular expression.
#
# Invoked by ctest (see the CLI tests in the top-level CMakeLists):
#   cmake -DBINARY=... "-DARGS=--flag=value" -DEXPECT_RC=2 \
#         "-DEXPECT_STDERR=regex" -P expect_exit.cmake
if(NOT BINARY OR NOT DEFINED EXPECT_RC OR NOT DEFINED EXPECT_STDERR)
  message(FATAL_ERROR
          "expect_exit.cmake needs -DBINARY, -DEXPECT_RC, -DEXPECT_STDERR")
endif()

separate_arguments(tool_args NATIVE_COMMAND "${ARGS}")
execute_process(
  COMMAND ${BINARY} ${tool_args}
  RESULT_VARIABLE run_rc
  OUTPUT_QUIET
  ERROR_VARIABLE run_err
)
if(NOT run_rc STREQUAL "${EXPECT_RC}")
  message(FATAL_ERROR
          "${BINARY} ${ARGS} exited with '${run_rc}', expected "
          "${EXPECT_RC}. stderr:\n${run_err}")
endif()
if(NOT run_err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR
          "${BINARY} ${ARGS} stderr does not match '${EXPECT_STDERR}':\n"
          "${run_err}")
endif()
