# Golden-output check. Runs a program, removes the wall-clock
# ` latency_us=<t>` fields (the only run-to-run variation in its output)
# and compares the rest byte for byte with a checked-in golden file; on a
# mismatch it prints the first differing line and keeps the actual output
# beside the build.
#
#   cmake -DPROGRAM=<exe> [-DARGS="<args>"] [-DINPUT=<stdin file>]
#         -DGOLDEN=<golden file> -DACTUAL=<where to keep a mismatch>
#         [-DWRITE=ON] -P golden.cmake
#
# WRITE=ON rewrites the golden file instead of checking it (see README.md
# in this directory for the one command that regenerates every file).

cmake_minimum_required(VERSION 3.16)

foreach(var PROGRAM GOLDEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden.cmake: -D${var}=... is required")
  endif()
endforeach()

separate_arguments(args UNIX_COMMAND "${ARGS}")
if(INPUT)
  set(input_arg INPUT_FILE "${INPUT}")
endif()
execute_process(COMMAND "${PROGRAM}" ${args} ${input_arg}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${rc}")
endif()
string(REGEX REPLACE " latency_us=[0-9.]+" "" actual "${actual}")

if(WRITE)
  file(WRITE "${GOLDEN}" "${actual}")
  message(STATUS "wrote ${GOLDEN}")
  return()
endif()

file(READ "${GOLDEN}" expected)
if(actual STREQUAL expected)
  return()
endif()

if(ACTUAL)
  file(WRITE "${ACTUAL}" "${actual}")
endif()
# Binary-search the length of the common prefix, then report the line
# it ends in.
string(LENGTH "${expected}" lo)
string(LENGTH "${actual}" hi)
if(lo LESS hi)
  set(hi ${lo})
endif()
set(lo 0)
while(lo LESS hi)
  math(EXPR mid "(${lo} + ${hi} + 1) / 2")
  string(SUBSTRING "${expected}" 0 ${mid} want)
  string(SUBSTRING "${actual}" 0 ${mid} got)
  if(want STREQUAL got)
    set(lo ${mid})
  else()
    math(EXPR hi "${mid} - 1")
  endif()
endwhile()
string(SUBSTRING "${expected}" 0 ${lo} prefix)
string(REGEX MATCHALL "\n" newlines "${prefix}")
list(LENGTH newlines line)
math(EXPR line "${line} + 1")
string(FIND "${prefix}" "\n" start REVERSE)
math(EXPR start "${start} + 1")
foreach(text expected actual)
  string(SUBSTRING "${${text}}" ${start} -1 rest)
  string(FIND "${rest}" "\n" end)
  string(SUBSTRING "${rest}" 0 ${end} ${text}_line)
  if(${text}_line STREQUAL "")
    set(${text}_line "<end of file>")
  endif()
endforeach()
message(FATAL_ERROR
  "output differs from ${GOLDEN} at line ${line}\n"
  "  expected: ${expected_line}\n"
  "  actual:   ${actual_line}\n"
  "full actual output: ${ACTUAL}")
