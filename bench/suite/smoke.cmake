# Smoke test (ctest --test-dir build-suite): every workload of
# BENCHMARK.json for 1 s, untraced and traced. Each run must exit 0 and
# print, on its last line, every metric BENCHMARK.json names for that
# mode as a finite number with the declared unit, each also as a
# "<workload> <metric> <value> <unit>" line, with failed_frac 0.
#
#   cmake -DSUITE=<hmxp_suite> -DBENCHMARK_JSON=<file> -DWORK_DIR=<dir>
#         -P smoke.cmake
cmake_minimum_required(VERSION 3.20)

file(READ "${BENCHMARK_JSON}" benchmark)
file(MAKE_DIRECTORY "${WORK_DIR}")

function(check_metrics output family)
  string(REGEX MATCH "[^\n]+\n?$" last "${output}")
  string(JSON count LENGTH "${benchmark}" ${family})
  math(EXPR count "${count} - 1")
  foreach(i RANGE ${count})
    string(JSON name GET "${benchmark}" ${family} ${i} name)
    string(JSON unit GET "${benchmark}" ${family} ${i} unit)
    string(JSON type ERROR_VARIABLE error TYPE "${last}" metrics ${name} value)
    if(error OR NOT type STREQUAL "NUMBER")
      message(FATAL_ERROR "${workload}: ${family} metric ${name} missing or "
                          "not finite in: ${last}")
    endif()
    string(JSON printed_unit GET "${last}" metrics ${name} unit)
    if(NOT printed_unit STREQUAL unit)
      message(FATAL_ERROR "${workload}: ${name} has unit '${printed_unit}', "
                          "BENCHMARK.json says '${unit}'")
    endif()
    string(REPLACE "." "\\." pattern "${workload} ${name} ")
    if(NOT output MATCHES "(^|\n)${pattern}[^ \n]+ ${unit}\n")
      message(FATAL_ERROR "${workload}: no '${workload} ${name} <value> "
                          "${unit}' line")
    endif()
  endforeach()
  string(JSON failed GET "${last}" failed)
  string(JSON correct GET "${last}" correct)
  if(NOT failed EQUAL 0 OR NOT correct STREQUAL "ON")
    message(FATAL_ERROR "${workload}: correct=${correct} failed=${failed}")
  endif()
  if(NOT output MATCHES "\n${workload} failed_frac 0 frac\n")
    message(FATAL_ERROR "${workload}: failed_frac is not 0")
  endif()
endfunction()

string(JSON workload_count LENGTH "${benchmark}" workloads)
math(EXPR workload_count "${workload_count} - 1")
foreach(i RANGE ${workload_count})
  string(JSON workload GET "${benchmark}" workloads ${i} name)
  foreach(family end_to_end per_layer)
    set(args --workload ${workload} --seed 1 --seconds 1
             --out "${WORK_DIR}/${workload}-${family}.json")
    if(family STREQUAL "per_layer")
      list(APPEND args --trace-dir "${WORK_DIR}/spans")
    endif()
    execute_process(COMMAND "${SUITE}" ${args}
                    OUTPUT_VARIABLE output ERROR_VARIABLE errors
                    RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
      message(FATAL_ERROR "${workload} (${family}) exited ${status}:\n"
                          "${errors}")
    endif()
    check_metrics("${output}" ${family})
    message(STATUS "${workload} ${family}: ok")
  endforeach()
  if(NOT EXISTS "${WORK_DIR}/spans/spans.${workload}.json")
    message(FATAL_ERROR "${workload}: traced run wrote no span file")
  endif()
endforeach()
