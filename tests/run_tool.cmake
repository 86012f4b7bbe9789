# ctest runner for command-line tool cases: runs TOOL with the single
# argument ARG and requires exit status STATUS (ctest alone only tells
# zero from non-zero).  Every ID in the comma-separated HEADERS must then
# open a "# <ID> " header line of the tool's stdout.
#
#   cmake -DTOOL=<path> -DARG=<argument> -DSTATUS=<n> [-DHEADERS=A,B]
#         -P run_tool.cmake
execute_process(COMMAND "${TOOL}" "${ARG}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${STATUS}")
  message(FATAL_ERROR
    "${TOOL} ${ARG}: exit status ${rc}, expected ${STATUS}\n${out}${err}")
endif()
string(REPLACE "," ";" ids "${HEADERS}")
foreach(id IN LISTS ids)
  string(REGEX MATCH "(^|\n)# ${id} " found "${out}")
  if(NOT found)
    message(FATAL_ERROR "${TOOL} ${ARG}: no '# ${id}' header in\n${out}")
  endif()
endforeach()
