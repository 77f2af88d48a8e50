# Runs `${PROGRAM} --bogus`: it must exit with status 2 and name the
# flag on stderr. Run through CTest (test example_unknown_flag):
#   cmake -DPROGRAM=build/online_adaptive -P examples/unknown_flag.cmake
execute_process(COMMAND ${PROGRAM} --bogus
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR
          "${PROGRAM} --bogus ended with '${status}', want 2\n${err}")
endif()
if(NOT err MATCHES "unknown flag: --bogus")
  message(FATAL_ERROR "stderr does not name the flag:\n${err}")
endif()
