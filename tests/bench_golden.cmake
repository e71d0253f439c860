# Diffs the stdout of paper benches against a checked-in golden file.
#
#   cmake -DBENCHES=<exe>,<exe>... -DGOLDEN=<file> -DOBSERVED=<file>
#         -P bench_golden.cmake
#
# Runs each bench in order and compares a `# <bench>` line followed by
# its stdout, per bench, with GOLDEN byte for byte. On a mismatch it
# writes what it saw to OBSERVED and prints the diff. With
# FIREAXE_UPDATE_GOLDEN=1 (as for tests/golden.hh) it rewrites GOLDEN
# instead.

set(update "$ENV{FIREAXE_UPDATE_GOLDEN}")
if(NOT update STREQUAL "" AND NOT update STREQUAL "1")
    message(FATAL_ERROR "FIREAXE_UPDATE_GOLDEN needs 1, got '${update}'")
endif()

string(REPLACE "," ";" benches "${BENCHES}")
set(observed "")
foreach(bench ${benches})
    execute_process(COMMAND ${bench} OUTPUT_VARIABLE out
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${bench} exited with ${rc}")
    endif()
    get_filename_component(name ${bench} NAME)
    string(APPEND observed "# ${name}\n${out}")
endforeach()

if(update STREQUAL "1")
    file(WRITE ${GOLDEN} "${observed}")
    message(STATUS "rewrote ${GOLDEN}")
    return()
endif()

file(READ ${GOLDEN} expected)
if(NOT observed STREQUAL expected)
    file(WRITE ${OBSERVED} "${observed}")
    execute_process(COMMAND diff -u ${GOLDEN} ${OBSERVED})
    message(FATAL_ERROR "bench output differs from ${GOLDEN} "
                        "(observed in ${OBSERVED})")
endif()
