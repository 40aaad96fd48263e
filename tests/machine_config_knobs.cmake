# Fails when a data member of hw::MachineConfig is assigned by no C++
# file under src/ (outside hw/machine_config.{hh,cc}), tools/, bench/,
# examples/, benchmark/ or tests/. A field no caller sets is a
# constant that only looks like a knob: it belongs with the calibrated
# hw::k* costs in src/hw/machine_config.hh. Driven by CTest
# (tests/CMakeLists.txt):
#
#   cmake -DSOURCE_DIR=path/to/repo -P machine_config_knobs.cmake
#
# A member is a line of the struct body reading "    <type> <name> ="
# or "    <type> <name>;". An assignment is ".name =" or "->name ="
# (compound operators and designated initialisers included). A member
# of another struct with the same name also counts, so the check can
# miss a dead field; a member set only through a reference or a
# MachineConfig method would be named.

cmake_minimum_required(VERSION 3.16)

file(READ "${SOURCE_DIR}/src/hw/machine_config.hh" header)
string(FIND "${header}" "\nstruct MachineConfig\n{\n" begin)
if(begin EQUAL -1)
    message(FATAL_ERROR "struct MachineConfig not found")
endif()
string(SUBSTRING "${header}" ${begin} -1 body)
string(FIND "${body}" "\n};\n" end)
string(SUBSTRING "${body}" 0 ${end} body)
# One list element per line: neutralise the characters CMake's list
# splitting treats specially before splitting on newlines.
string(REGEX REPLACE "[][;\\]" "." body "${body}")
string(REPLACE "\n" ";" lines "${body}")
set(members "")
foreach(line IN LISTS lines)
    if(line MATCHES "^    [A-Za-z_][A-Za-z0-9_:<>]* ([a-z_][a-z0-9_]*)( =|\\.$)")
        list(APPEND members "${CMAKE_MATCH_1}")
    endif()
endforeach()
list(LENGTH members count)
if(count EQUAL 0)
    message(FATAL_ERROR "no MachineConfig data members parsed")
endif()

set(code "")
foreach(dir src tools bench examples benchmark tests)
    file(GLOB_RECURSE files
        "${SOURCE_DIR}/${dir}/*.cc" "${SOURCE_DIR}/${dir}/*.hh"
        "${SOURCE_DIR}/${dir}/*.h" "${SOURCE_DIR}/${dir}/*.cpp")
    foreach(file IN LISTS files)
        if(NOT file MATCHES "/src/hw/machine_config\\.(hh|cc)$")
            file(READ "${file}" text)
            string(APPEND code "${text}")
        endif()
    endforeach()
endforeach()

set(bad "")
foreach(member IN LISTS members)
    if(NOT code MATCHES "(\\.|->)${member}[ \t\n]*[-+*/|&]?=[^=]")
        string(APPEND bad "\n  ${member}")
    endif()
endforeach()

if(NOT bad STREQUAL "")
    message(FATAL_ERROR
        "MachineConfig members no caller assigns (make each an "
        "hw::k* constant):${bad}")
endif()
message(STATUS "${count} MachineConfig members, each assigned by a caller")
