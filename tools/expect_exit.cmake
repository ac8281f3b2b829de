# Runs PROGRAM with the space-separated ARGS and fails unless it exits
# with code EXPECT (an abort reports a signal, never a number, so it
# fails too). Used by ctests that pin a tool's usage-error exit code:
#   cmake -DPROGRAM=<exe> "-DARGS=<args>" -DEXPECT=2 -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${PROGRAM} ${args}
                INPUT_FILE /dev/null
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: exit '${code}', want ${EXPECT}\n${err}")
endif()
