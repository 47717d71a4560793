# Trace round trip through the shipped binary: records a primitive trace
# from `${CLI} trace --record --config ${CONFIG}`, replays it through the
# trace frontend (`-k workload.source=trace:...`), and fails unless the
# record run and the replay run print identical `digest:` and `data:` lines
# (docs/CONFIGS.md, "Trace-driven runs"). ${OUT} names the scratch trace
# file (unique per test so parallel ctest runs don't collide).
function(digest_of out text)
  string(REGEX MATCH "digest: +[0-9a-f]+\ndata: +[0-9a-f]+" digest "${text}")
  if(digest STREQUAL "")
    message(FATAL_ERROR "no digest and data lines in:\n${text}")
  endif()
  set(${out} "${digest}" PARENT_SCOPE)
endfunction()

execute_process(COMMAND ${CLI} trace --record --config ${CONFIG} --trace-out ${OUT}
                RESULT_VARIABLE rc OUTPUT_VARIABLE rec_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "record run failed (${rc})\nstderr: ${err}")
endif()
digest_of(rec_digest "${rec_out}")

execute_process(COMMAND ${CLI} run --config ${CONFIG}
                        -k "workload.source=trace:${OUT}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE rep_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "replay run failed (${rc})\nstderr: ${err}")
endif()
digest_of(rep_digest "${rep_out}")

if(NOT rec_digest STREQUAL rep_digest)
  message(FATAL_ERROR "replay diverged from recording:\n  recorded:\n${rec_digest}\n  replayed:\n${rep_digest}")
endif()
