# Fails when README.md or docs/*.md cites a machsim flag that
# `machsim --help` does not list. The help is generated from the same
# table the parser reads, so a listed flag is a flag machsim accepts.
# Driven by CTest (tests/CMakeLists.txt):
#
#   cmake -DMACHSIM=path/to/machsim -DSOURCE_DIR=path/to/repo \
#         -P machsim_doc_flags.cmake
#
# A citation is any --flag token after "machsim " on one line, up to
# the closing backtick of an inline code span.

cmake_minimum_required(VERSION 3.16)

execute_process(COMMAND "${MACHSIM}" --help
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE help)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "machsim --help: exit ${rc}")
endif()
# The help's flag column: "  --name" at the start of a line.
string(REGEX MATCHALL "\n  --[a-z0-9-]+" listed "${help}")
string(REPLACE "\n  " "" listed "${listed}")

file(GLOB docs "${SOURCE_DIR}/docs/*.md")
set(bad "")
foreach(doc "${SOURCE_DIR}/README.md" ${docs})
    file(READ "${doc}" text)
    # One list element per line: neutralise the characters CMake's
    # list splitting treats specially before splitting on newlines.
    string(REGEX REPLACE "[][;\\]" "." text "${text}")
    string(REPLACE "\n" ";" lines "${text}")
    set(n 0)
    foreach(line IN LISTS lines)
        math(EXPR n "${n} + 1")
        string(REGEX MATCHALL "machsim [^`]*" commands "${line}")
        foreach(command IN LISTS commands)
            string(REGEX MATCHALL "--[a-z0-9][a-z0-9-]*" flags
                "${command}")
            foreach(flag IN LISTS flags)
                if(NOT flag IN_LIST listed)
                    file(RELATIVE_PATH where "${SOURCE_DIR}" "${doc}")
                    string(APPEND bad "\n  ${where}:${n}: machsim ${flag}")
                endif()
            endforeach()
        endforeach()
    endforeach()
endforeach()

if(NOT bad STREQUAL "")
    message(FATAL_ERROR
        "docs cite flags that machsim --help does not list:${bad}")
endif()
