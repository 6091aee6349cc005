# Runs CMD (with the ;-list ARGS) and fails unless its stdout equals GOLDEN
# byte for byte. The output is kept in OUT for inspection.
#
#   cmake -DCMD=<exe> -DARGS=<args> -DGOLDEN=<file> -DOUT=<file> -P compare_output.cmake
execute_process(COMMAND ${CMD} ${ARGS} OUTPUT_FILE ${OUT} RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${CMD} ${ARGS} exited with ${status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN} RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
endif()
