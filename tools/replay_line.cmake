# Runs ${CLI} with ${ARGS}, a harness sweep that must fail (exit 1), and
# checks its replay line: the line must name every flag in ${FLAGS} (a
# comma-separated list of "--flag value" pairs), and re-running it must
# exit 1 again with the same ${MATCH} line (default `observed:`; a chaos
# sweep's `cell:` line is its corpus line, verdict included).
if(NOT MATCH)
  set(MATCH "observed:")
endif()
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CLI} ${arg_list} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "sweep: expected exit 1, got '${rc}'\n${out}")
endif()
string(REGEX MATCH "${MATCH} [^\n]*" observed "${out}")
if(NOT observed)
  message(FATAL_ERROR "sweep printed no ${MATCH} line\n${out}")
endif()
if(NOT out MATCHES "  replay: bcsim ([^\n]*)")
  message(FATAL_ERROR "sweep printed no replay line\n${out}")
endif()
set(replay "${CMAKE_MATCH_1}")
string(REPLACE "," ";" flags "${FLAGS}")
foreach(flag IN LISTS flags)
  string(FIND "${replay} " "${flag} " at)
  if(at EQUAL -1)
    message(FATAL_ERROR "replay line lacks '${flag}': ${replay}")
  endif()
endforeach()
separate_arguments(replay_list UNIX_COMMAND "${replay}")
execute_process(COMMAND ${CLI} ${replay_list} RESULT_VARIABLE rc2 OUTPUT_VARIABLE out2
                ERROR_VARIABLE err2)
string(REGEX MATCH "${MATCH} [^\n]*" observed2 "${out2}")
if(NOT rc2 EQUAL 1 OR NOT observed2 STREQUAL observed)
  message(FATAL_ERROR "replay '${replay}' exited '${rc2}' with '${observed2}', "
                      "the sweep with '${observed}'")
endif()
