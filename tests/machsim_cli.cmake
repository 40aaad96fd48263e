# Runs machsim once and checks its exit code and, optionally, that
# stderr names a flag and that stdout holds a given text. Driven by
# CTest (tests/CMakeLists.txt):
#
#   cmake -DMACHSIM=path/to/machsim "-DARGS=--lazy foo" -DEXPECT_RC=1 \
#         -DEXPECT_STDERR=--lazy [-DEXPECT_STDOUT=text|NO_STDOUT] \
#         -P machsim_cli.cmake

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${MACHSIM}" ${args}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)

if(NOT rc STREQUAL "${EXPECT_RC}")
    message(FATAL_ERROR
        "machsim ${ARGS}: exit ${rc}, expected ${EXPECT_RC}\n"
        "stderr:\n${err}")
endif()
if(NOT "${EXPECT_STDERR}" STREQUAL "")
    string(FIND "${err}" "${EXPECT_STDERR}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR
            "machsim ${ARGS}: stderr does not mention "
            "'${EXPECT_STDERR}'\nstderr:\n${err}")
    endif()
endif()
if("${EXPECT_STDOUT}" STREQUAL "NO_STDOUT")
    if(NOT "${out}" STREQUAL "")
        message(FATAL_ERROR
            "machsim ${ARGS}: printed to stdout\nstdout:\n${out}")
    endif()
elseif(NOT "${EXPECT_STDOUT}" STREQUAL "")
    string(FIND "${out}" "${EXPECT_STDOUT}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR
            "machsim ${ARGS}: stdout does not hold "
            "'${EXPECT_STDOUT}'\nstdout:\n${out}")
    endif()
endif()
