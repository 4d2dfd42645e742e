# Paper transcript golden (CTest label: bench). Runs bench/paper and
# compares its stdout byte for byte with bench/paper_golden.txt. Every
# section is seeded, so a difference means a campaign produced other
# records or a section prints them differently. The observed transcript is
# left in OUTPUT. Invoked via cmake -P.

execute_process(
  COMMAND "${PAPER}"
  OUTPUT_FILE "${OUTPUT}"
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PAPER} exited with status ${status}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${GOLDEN}" "${OUTPUT}"
  RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND ${DIFF} -u "${GOLDEN}" "${OUTPUT}")
  endif()
  message(FATAL_ERROR "paper transcript ${OUTPUT} differs from ${GOLDEN}")
endif()
