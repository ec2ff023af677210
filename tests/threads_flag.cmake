# --threads on the example CLIs (driven by ctest, see tests/CMakeLists):
# the count must be a whole number in [1, 64]. Trailing junk, zero,
# negative and over-bound values are usage errors (exit 2), refused while
# the flags are read. Only refusals are driven with bad values; no
# over-bound count is ever run. A two-worker run is the positive control.
#
# Expects: -DALLOCATE_FILE=<path> -DGATEWAY=<path> -DPROBLEM=<path>

foreach(value 4x 0 -3 65 " 2")
  execute_process(
    COMMAND "${ALLOCATE_FILE}" "${PROBLEM}" sum-trt --threads "${value}"
    RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR
            "allocate_file --threads '${value}': want exit 2, got ${status}\n"
            "${err}")
  endif()
  execute_process(
    COMMAND "${GATEWAY}" --threads "${value}"
    RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR
            "hierarchical_gateway --threads '${value}': want exit 2, got "
            "${status}\n${err}")
  endif()
endforeach()

execute_process(
  COMMAND "${ALLOCATE_FILE}" "${PROBLEM}" sum-trt --threads 2
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT status EQUAL 0 OR NOT out MATCHES "status:[ ]+optimal")
  message(FATAL_ERROR "allocate_file --threads 2 (${status}):\n${out}")
endif()
