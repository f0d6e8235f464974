# Golden-output check for one paper-reproduction bench: runs it at
# FASTBCNN_BENCH_FAST scale and fails unless its stdout equals the
# committed golden file byte for byte.  Registered per bench by
# bench/CMakeLists.txt; tools/regen_golden.sh rewrites the files.
#
#   cmake -DBENCH=<exe> -DGOLDEN=<file> -DACTUAL=<file> -P check_golden.cmake
#
# The SIMD level is whatever the host and FASTBCNN_SIMD select: the
# outputs do not depend on it.

foreach(var BENCH GOLDEN ACTUAL)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "check_golden.cmake needs -D${var}=...")
    endif()
endforeach()

# FASTBCNN_BENCH_FULL would take precedence over FAST.
unset(ENV{FASTBCNN_BENCH_FULL})
set(ENV{FASTBCNN_BENCH_FAST} 1)
execute_process(COMMAND "${BENCH}"
    OUTPUT_FILE "${ACTUAL}"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
    "${GOLDEN}" "${ACTUAL}"
    RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    execute_process(COMMAND diff -u "${GOLDEN}" "${ACTUAL}")
    message(FATAL_ERROR
        "${ACTUAL} differs from ${GOLDEN}; if the change is intended, "
        "run tools/regen_golden.sh and name every changed row in "
        "CHANGES.md")
endif()
