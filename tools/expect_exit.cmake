# Runs ${CLI} with ${ARGS} (space-separated) and fails unless the process
# exits with status ${EXPECT}, its stdout matches the regular expression
# ${MATCH} when one is set, and its stderr matches ${ERR_MATCH} when one is
# set. Used to pin the CLI's usage-error contract: malformed flag values
# must exit 2, not crash (1) or succeed (0).
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CLI} ${arg_list} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL ${EXPECT})
  message(FATAL_ERROR "expected exit ${EXPECT}, got '${rc}'\nstderr: ${err}")
endif()
if(MATCH AND NOT out MATCHES "${MATCH}")
  message(FATAL_ERROR "stdout does not match '${MATCH}':\n${out}")
endif()
if(ERR_MATCH AND NOT err MATCHES "${ERR_MATCH}")
  message(FATAL_ERROR "stderr does not match '${ERR_MATCH}':\n${err}")
endif()
