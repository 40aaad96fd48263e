# Fails when a public data member of one of the listed classes is never
# read: every mention of it in the C++ files under src/, tools/, bench/,
# examples/, benchmark/ and tests/ is its declaration, an assignment
# (compound operators included) or an increment or decrement statement.
# State nothing reads only looks like a measurement: delete it, or read
# it where it counts (a stats table, a test). Driven by CTest
# (tests/CMakeLists.txt):
#
#   cmake -DSOURCE_DIR=path/to/repo \
#       -DCLASSES=src/kern/cpu.hh:Cpu,src/kern/lock.hh:SpinLock,... \
#       -P counters_are_read.cmake
#
# CLASSES is a comma-separated list of <header>:<class> pairs. A public
# data member is a line of the class body, in a public section (any
# section of a struct before its first access label), reading
# "<type> <name> =", "<type> *<name> =" or the same with ";" for " =".
# A listed class may have none (its entry guards against the next).
#
# Comment lines (starting "//", "/*" or "* "), trailing // comments
# and string and character literals are ignored. Matching is by name,
# so a read of a same-named member or local anywhere counts: the check
# can miss a dead member, and names one only when nothing reads any
# identifier of that name.

cmake_minimum_required(VERSION 3.16)

if(NOT CLASSES)
    message(FATAL_ERROR "CLASSES not set")
endif()
string(REPLACE "," ";" pairs "${CLASSES}")

set(files "")
foreach(dir src tools bench examples benchmark tests)
    file(GLOB_RECURSE found
        "${SOURCE_DIR}/${dir}/*.cc" "${SOURCE_DIR}/${dir}/*.hh"
        "${SOURCE_DIR}/${dir}/*.h" "${SOURCE_DIR}/${dir}/*.cpp")
    list(APPEND files ${found})
endforeach()

# All code as one text, with every write of an identifier removed, so
# that any mention left is a read. The text is only ever quoted, so its
# semicolons survive.
set(code "")
foreach(file IN LISTS files)
    file(READ "${file}" text)
    string(APPEND code "\n${text}")
endforeach()
set(ident "[A-Za-z_][A-Za-z0-9_]*")
# Literals first (so a "//" inside one is not a comment), then comments.
string(REGEX REPLACE "'([^'\\\n]|\\\\.)'" "' '" code "${code}")
string(REGEX REPLACE "\"([^\"\\\n]|\\\\.)*\"" "\"\"" code "${code}")
string(REGEX REPLACE "//[^\n]*" "" code "${code}")
string(REGEX REPLACE "\n[ \t]*(/\\*|\\*[ /])[^\n]*" "\n" code "${code}")
# Assignments: "name =", "name +=", "name <<=" (not ==, <=, >=, !=).
string(REGEX REPLACE "${ident}[ \t]*([-+*/%|&^]|<<|>>)?=([^=])" "=\\2"
    code "${code}")
# Increment and decrement statements: "++a.b->name;" and "name++;".
string(REGEX REPLACE
    "(\\+\\+|--)[ \t]*([A-Za-z0-9_()*]+(\\[[^]\n]*\\])*(\\.|->))*${ident}[ \t]*;"
    ";" code "${code}")
string(REGEX REPLACE "${ident}[ \t]*(\\+\\+|--)[ \t]*([;)])" "\\2" code
    "${code}")
# Declarations without an initialiser: "<type> name;", but not
# "return name;" and the like.
string(REGEX REPLACE "(return|delete|throw)[ \t]+" "\\1(" code "${code}")
string(REGEX REPLACE
    "\n([ \t]*[A-Za-z_][A-Za-z0-9_:<>,]*[ \t]+[*&]?)${ident}[ \t]*;"
    "\n\\1;" code "${code}")

set(bad "")
set(total 0)
foreach(pair IN LISTS pairs)
    string(REPLACE ":" ";" parts "${pair}")
    list(GET parts 0 header_path)
    list(GET parts 1 name)

    file(READ "${SOURCE_DIR}/${header_path}" header)
    string(REGEX MATCH "\n( *)(class|struct) ${name}\n *{\n" open
        "${header}")
    if(open STREQUAL "")
        message(FATAL_ERROR "class ${name} not found in ${header_path}")
    endif()
    set(indent "${CMAKE_MATCH_1}")
    set(public FALSE)
    if(CMAKE_MATCH_2 STREQUAL "struct")
        set(public TRUE)
    endif()
    string(FIND "${header}" "${open}" begin)
    string(SUBSTRING "${header}" ${begin} -1 body)
    string(FIND "${body}" "\n${indent}};\n" end)
    string(SUBSTRING "${body}" 0 ${end} body)
    # One list element per line: neutralise the characters CMake's
    # list splitting treats specially before splitting on newlines.
    string(REGEX REPLACE "[][;\\]" "." body "${body}")
    string(REPLACE "\n" ";" lines "${body}")
    foreach(line IN LISTS lines)
        if(line MATCHES "^${indent}  public:")
            set(public TRUE)
        elseif(line MATCHES "^${indent}  (private|protected):")
            set(public FALSE)
        elseif(public AND line MATCHES
               "^${indent}    [A-Za-z_][A-Za-z0-9_:<>]* \\*?([a-z_][a-z0-9_]*)( =|\\.$)")
            set(member "${CMAKE_MATCH_1}")
            math(EXPR total "${total} + 1")
            if(NOT code MATCHES "[^A-Za-z0-9_]${member}[^A-Za-z0-9_]")
                string(APPEND bad "\n  ${header_path}: ${name}::${member}")
            endif()
        endif()
    endforeach()
endforeach()

if(total EQUAL 0)
    message(FATAL_ERROR "no public data members parsed")
endif()
if(NOT bad STREQUAL "")
    message(FATAL_ERROR
        "Public data members nothing reads (delete each, or read it "
        "where it counts):${bad}")
endif()
message(STATUS "${total} public data members, each read somewhere")
