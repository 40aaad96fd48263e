# Fails when a data member of one of the listed structs is assigned by
# no C++ file under src/, tools/, bench/, examples/, benchmark/ or
# tests/, outside the struct's own .hh and its .cc. A field no caller
# sets is a constant that only looks like a knob: it belongs in the
# .cc that reads it (for hw::MachineConfig, with the calibrated hw::k*
# costs in src/hw/machine_config.hh). Driven by CTest
# (tests/CMakeLists.txt):
#
#   cmake -DSOURCE_DIR=path/to/repo \
#       -DSTRUCTS=src/hw/machine_config.hh:MachineConfig,... \
#       -P machine_config_knobs.cmake
#
# STRUCTS is a comma-separated list of <header>:<struct> pairs; a
# nested struct (an app's Params) is named by its own name, and its
# header holds only one struct of that name.
#
# A member is a line of the struct body reading "<type> <name> =",
# "<type> *<name> =" or the same with ";" for " =". An assignment is
# ".name =" or "->name =" (compound operators and designated
# initialisers included). A member of another struct with the same
# name also counts, so the check can miss a dead field: run against
# the tree before the option structs were trimmed, it could not see
# ExploreOptions::max_delays, ExhaustiveWindow::minimize_budget,
# VmGenOptions::bound, Parthenon::Params::depth or
# Agora::Params::workers, each of which shared its name with a member
# set elsewhere. A member set only through a reference, a method, or
# a positional initialiser would be named.

cmake_minimum_required(VERSION 3.16)

if(NOT STRUCTS)
    message(FATAL_ERROR "STRUCTS not set")
endif()
string(REPLACE "," ";" pairs "${STRUCTS}")

set(files "")
foreach(dir src tools bench examples benchmark tests)
    file(GLOB_RECURSE found
        "${SOURCE_DIR}/${dir}/*.cc" "${SOURCE_DIR}/${dir}/*.hh"
        "${SOURCE_DIR}/${dir}/*.h" "${SOURCE_DIR}/${dir}/*.cpp")
    list(APPEND files ${found})
endforeach()
list(LENGTH files nfiles)
set(index 0)
foreach(file IN LISTS files)
    file(READ "${file}" text_${index})
    math(EXPR index "${index} + 1")
endforeach()

set(bad "")
set(total 0)
foreach(pair IN LISTS pairs)
    string(REPLACE ":" ";" parts "${pair}")
    list(GET parts 0 header_path)
    list(GET parts 1 name)

    file(READ "${SOURCE_DIR}/${header_path}" header)
    string(REGEX MATCH "\n( *)struct ${name}\n *{\n" open "${header}")
    if(open STREQUAL "")
        message(FATAL_ERROR "struct ${name} not found in ${header_path}")
    endif()
    set(indent "${CMAKE_MATCH_1}")
    string(FIND "${header}" "${open}" begin)
    string(SUBSTRING "${header}" ${begin} -1 body)
    string(FIND "${body}" "\n${indent}};\n" end)
    string(SUBSTRING "${body}" 0 ${end} body)
    # One list element per line: neutralise the characters CMake's
    # list splitting treats specially before splitting on newlines.
    string(REGEX REPLACE "[][;\\]" "." body "${body}")
    string(REPLACE "\n" ";" lines "${body}")
    set(members "")
    foreach(line IN LISTS lines)
        if(line MATCHES
           "^${indent}    [A-Za-z_][A-Za-z0-9_:<>]* \\*?([a-z_][a-z0-9_]*)( =|\\.$)")
            list(APPEND members "${CMAKE_MATCH_1}")
        endif()
    endforeach()
    list(LENGTH members count)
    if(count EQUAL 0)
        message(FATAL_ERROR "no data members parsed for ${name}")
    endif()
    math(EXPR total "${total} + ${count}")

    # Every file but the struct's own header and its .cc.
    string(REGEX REPLACE "\\.hh$" "" own "${SOURCE_DIR}/${header_path}")
    set(code "")
    set(index 0)
    foreach(file IN LISTS files)
        if(NOT file STREQUAL "${own}.hh" AND NOT file STREQUAL "${own}.cc")
            string(APPEND code "${text_${index}}")
        endif()
        math(EXPR index "${index} + 1")
    endforeach()

    foreach(member IN LISTS members)
        if(NOT code MATCHES "(\\.|->)${member}[ \t\n]*[-+*/|&]?=[^=]")
            string(APPEND bad "\n  ${header_path}: ${name}::${member}")
        endif()
    endforeach()
endforeach()

if(NOT bad STREQUAL "")
    message(FATAL_ERROR
        "Data members no caller assigns (make each a constant where it "
        "is read):${bad}")
endif()
message(STATUS "${total} data members, each assigned by a caller")
