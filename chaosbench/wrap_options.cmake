# Writes the linker options of chaos_replay_traced, one per line: --wrap
# and --undefined for each LAYER_SPAN symbol in layer_symbols.def that the
# mmconf static libraries define. A listed symbol the libraries lack (an
# entry point renamed, or re-mangled by a signature change) is left out,
# so the link still succeeds; the harness then reports it as unwrapped.
#
#   cmake -DDEF=layer_symbols.def -DLIB_DIR=<dir of lib*.a> -DNM=nm
#         -DOUT=<options file> -P wrap_options.cmake

cmake_minimum_required(VERSION 3.16)

file(GLOB libs ${LIB_DIR}/*.a)
if(NOT libs)
  message(FATAL_ERROR "no static libraries in ${LIB_DIR}")
endif()
execute_process(COMMAND ${NM} --defined-only -P ${libs}
                OUTPUT_VARIABLE nm_out RESULT_VARIABLE nm_status)
if(NOT nm_status EQUAL 0)
  message(FATAL_ERROR "${NM} failed on ${libs}")
endif()
# -P prints "<name> <type> <value> <size>" per symbol.
string(REGEX MATCHALL "[^\n ]+ [TW] " defined "${nm_out}")
list(TRANSFORM defined REPLACE " [TW] $" "")

file(STRINGS ${DEF} span_lines REGEX "^LAYER_SPAN\\(")
set(options "")
foreach(line IN LISTS span_lines)
  string(REGEX REPLACE "^LAYER_SPAN\\([a-z0-9_]+, *([A-Za-z0-9_]+)\\).*"
         "\\1" symbol "${line}")
  if(symbol IN_LIST defined)
    # --undefined pulls the symbol's archive member in: the wrapper's weak
    # __real_<symbol> reference would not.
    string(APPEND options "--wrap=${symbol}\n--undefined=${symbol}\n")
  endif()
endforeach()
file(WRITE ${OUT} "${options}")
