# libafex_interpose.so is preloaded into arbitrary target processes, so it
# may depend on libc alone: no C++ runtime, gtest or sanitizer runtime in
# its dependency closure, no C++ (mangled) symbol left for another library
# to define, and none exported into the target's namespace. Invoked by CTest
# via cmake -P with
#   -DINTERPOSER=<path to libafex_interpose.so> -DNM=<path to nm>

execute_process(
  COMMAND ldd ${INTERPOSER}
  OUTPUT_VARIABLE deps
  ERROR_VARIABLE deps_err
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "ldd ${INTERPOSER} exited with status ${status}\n${deps_err}")
endif()
message(STATUS "ldd ${INTERPOSER}:\n${deps}")
string(REGEX MATCH "[^\n]*(gtest|asan|ubsan|tsan|libstdc\\+\\+|libc\\+\\+)[^\n]*" bad_dep "${deps}")
if(bad_dep)
  message(FATAL_ERROR "interposer depends on more than libc: ${bad_dep}")
endif()

foreach(kind undefined defined)
  execute_process(
    COMMAND ${NM} -D --${kind}-only ${INTERPOSER}
    OUTPUT_VARIABLE symbols
    ERROR_VARIABLE symbols_err
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${NM} -D --${kind}-only exited with status ${status}\n${symbols_err}")
  endif()
  string(REGEX MATCH "[^\n]* _Z[^\n]*" cxx_symbol "${symbols}")
  if(cxx_symbol)
    message(FATAL_ERROR "interposer has a ${kind} C++ dynamic symbol: ${cxx_symbol}")
  endif()
endforeach()
