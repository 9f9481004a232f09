# Runs the bigfoot CLI with one flag and a program, and fails unless the
# run exits 1 with an error message on stderr matching EXPECT.
#
#   cmake -DBIGFOOT=<path> -DFLAG=<flag> -DPROGRAM=<file.bfj>
#         -DEXPECT=<regex> -P ExpectCliError.cmake
#
# TRACE_RECORD=<out.bft> runs `bigfoot trace record --out=<out.bft>` instead;
# TRACE=replay or TRACE=info runs `bigfoot trace replay` or `bigfoot trace
# info`, with PROGRAM the trace file.
if(DEFINED TRACE_RECORD)
  set(cmd ${BIGFOOT} trace record --out=${TRACE_RECORD} ${FLAG} ${PROGRAM})
elseif(DEFINED TRACE)
  set(cmd ${BIGFOOT} trace ${TRACE} ${FLAG} ${PROGRAM})
else()
  set(cmd ${BIGFOOT} ${FLAG} ${PROGRAM})
endif()
execute_process(COMMAND ${cmd}
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "'${FLAG}' was accepted (exit 0)")
endif()
if(NOT rc MATCHES "^[0-9]+$")
  message(FATAL_ERROR "'${FLAG}' crashed: ${rc}")
endif()
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "'${FLAG}' exited ${rc}, not 1; stderr was: ${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "'${FLAG}' exited ${rc} without the expected error; "
    "stderr was: ${err}")
endif()
