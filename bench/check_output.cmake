# Runs one bench and holds its stdout to the committed expected output.
#
# Usage: cmake -DBENCH=<binary> -DEXPECTED=<file> -DWORKDIR=<dir>
#              -P check_output.cmake
#
# The bench runs in WORKDIR, emptied first, so the BENCH_*.json it may
# write lands there. Fails unless the bench exits 0 and its stdout equals
# EXPECTED byte for byte; on a difference it prints a unified diff.
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
set(actual "${WORKDIR}/stdout.txt")
execute_process(COMMAND "${BENCH}" WORKING_DIRECTORY "${WORKDIR}"
                OUTPUT_FILE "${actual}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${EXPECTED}" "${actual}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  execute_process(COMMAND diff -u "${EXPECTED}" "${actual}")
  message(FATAL_ERROR "stdout differs from ${EXPECTED}. If the change "
          "means to move these numbers, copy ${actual} over it.")
endif()
