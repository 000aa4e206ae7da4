# Golden-output check: runs BIN and byte-compares its stdout with the
# committed EXPECTED file. Invoked by the `golden` ctest label (see
# bench/CMakeLists.txt) as
#   cmake -DBIN=<binary> -DEXPECTED=<golden> -DACTUAL=<output> -P compare.cmake
execute_process(COMMAND ${BIN} OUTPUT_FILE ${ACTUAL} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with status ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${ACTUAL} ${EXPECTED}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR
    "stdout differs from the golden copy; inspect with\n"
    "  diff ${EXPECTED} ${ACTUAL}\n"
    "and copy the new output over the golden file only if the model "
    "change is intended.")
endif()
