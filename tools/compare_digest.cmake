# Runs ${CLI} twice — with ${ARGS_A}, then ${ARGS_B} (each space-separated)
# — and fails unless both runs succeed and print identical `digest:` and
# `data:` lines. Pins the golden conformance grid: a config-built run is
# bit-identical to its flag-built equivalent (docs/CONFIGS.md).
function(run_and_digest args out_var)
  separate_arguments(arg_list UNIX_COMMAND "${args}")
  execute_process(COMMAND ${CLI} ${arg_list}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "'${CLI} ${args}' failed (${rc})\nstderr: ${err}")
  endif()
  string(REGEX MATCH "digest: +[0-9a-f]+\ndata: +[0-9a-f]+" digest "${out}")
  if(digest STREQUAL "")
    message(FATAL_ERROR "'${CLI} ${args}' printed no digest and data lines\nstdout: ${out}")
  endif()
  set(${out_var} "${digest}" PARENT_SCOPE)
endfunction()

run_and_digest("${ARGS_A}" digest_a)
run_and_digest("${ARGS_B}" digest_b)
if(NOT digest_a STREQUAL digest_b)
  message(FATAL_ERROR "digest mismatch:\n  A (${ARGS_A}):\n${digest_a}\n  B (${ARGS_B}):\n${digest_b}")
endif()
