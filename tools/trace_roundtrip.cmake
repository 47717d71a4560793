# Trace round trip through the shipped binary: runs `${CLI} ${ARGS}` (a
# `trace --record` run), then the `replay:` line it prints, and fails unless
# the record run and the replay run print identical `digest:` and `data:`
# lines (docs/CONFIGS.md, "Trace-driven runs"). ARGS names the trace file
# with --trace-out (unique per test so parallel ctest runs don't collide).
function(digest_of out text)
  string(REGEX MATCH "digest: +[0-9a-f]+\ndata: +[0-9a-f]+" digest "${text}")
  if(digest STREQUAL "")
    message(FATAL_ERROR "no digest and data lines in:\n${text}")
  endif()
  set(${out} "${digest}" PARENT_SCOPE)
endfunction()

separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CLI} ${arg_list}
                RESULT_VARIABLE rc OUTPUT_VARIABLE rec_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "record run failed (${rc})\nstderr: ${err}")
endif()
digest_of(rec_digest "${rec_out}")
if(NOT rec_out MATCHES "replay: +bcsim ([^\n]*)")
  message(FATAL_ERROR "record run printed no replay line:\n${rec_out}")
endif()
set(replay "${CMAKE_MATCH_1}")

separate_arguments(replay_list UNIX_COMMAND "${replay}")
execute_process(COMMAND ${CLI} ${replay_list}
                RESULT_VARIABLE rc OUTPUT_VARIABLE rep_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "replay 'bcsim ${replay}' failed (${rc})\nstderr: ${err}")
endif()
digest_of(rep_digest "${rep_out}")

if(NOT rec_digest STREQUAL rep_digest)
  message(FATAL_ERROR "replay 'bcsim ${replay}' diverged from recording:\n  recorded:\n${rec_digest}\n  replayed:\n${rep_digest}")
endif()
