# Runs a program and fails unless it exits with the expected status and
# prints the expected text (stdout and stderr together; a plain substring).
#
#   cmake -DPROGRAM=<path> "-DARGS=<args>" -DEXPECT_STATUS=<n>
#         "-DEXPECT_OUTPUT=<text>" -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL EXPECT_STATUS)
  message(FATAL_ERROR
    "exit status ${status}, expected ${EXPECT_STATUS}\n${out}${err}")
endif()
string(FIND "${out}${err}" "${EXPECT_OUTPUT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "output lacks \"${EXPECT_OUTPUT}\":\n${out}${err}")
endif()
