# Runs one perfbench smoke workload and holds its model digest to the
# committed one.
#
# Usage: cmake -DPERFBENCH=<binary> -DWORKLOAD=<name> -DEXPECTED=<file>
#              -P check_perfbench_digest.cmake
#
# EXPECTED holds one `<workload> <hex>` line per workload, the hex of
# the `digest <workload> <hex>` line perfbench prints at
# --seed 1 --seconds 0 --scale-div 50 --trace 0. Fails unless perfbench
# exits 0 and its digest equals the committed one.
set(args --seed 1 --seconds 0 --scale-div 50 --trace 0)
execute_process(COMMAND "${PERFBENCH}" --workload ${WORKLOAD} ${args}
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
message("${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PERFBENCH} exited ${rc}")
endif()
string(REGEX MATCH "digest ${WORKLOAD} ([0-9a-f]+)" line "${out}")
set(actual "${CMAKE_MATCH_1}")
file(STRINGS "${EXPECTED}" pinned REGEX "^${WORKLOAD} ")
string(REGEX REPLACE "^${WORKLOAD} " "" expected "${pinned}")
if(actual STREQUAL "" OR NOT actual STREQUAL expected)
  string(REPLACE ";" " " arg_line "${args}")
  message(FATAL_ERROR "digest of ${WORKLOAD} is '${actual}', "
          "${EXPECTED} pins '${expected}'. If the change means to move "
          "the model, regenerate the file:\n"
          "for w in aged_mix mq_read db_txn sharded_mix; do "
          "${PERFBENCH} --workload $w ${arg_line} | "
          "awk '$1 == \"digest\" {print $2, $3}'; done > ${EXPECTED}")
endif()
