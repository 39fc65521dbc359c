# tools/one_entry_per_method.cmake
#
# Guards the one-entry-per-estimator rule: every estimator in src/ is
# called through its (Scenario, Workspace) kernel, so no graph-level
# adapter taking a core::FailureModel may come back, and the retired
# level-parallel layer stays retired. Fails (non-zero exit) when
#   * a header under src/ other than core/failure_model.hpp (the model
#     itself) and scenario/scenario.hpp (FailureSpec's conversion) names
#     `FailureModel&`, or
#   * `level_parallel` appears in any file name or file under src/.
#
#   cmake -DSRC=<repo>/src -P tools/one_entry_per_method.cmake

cmake_minimum_required(VERSION 3.20)

if(NOT SRC OR NOT IS_DIRECTORY "${SRC}")
  message(FATAL_ERROR "one_entry_per_method: pass -DSRC=<repo>/src")
endif()

set(violations "")

file(GLOB_RECURSE headers "${SRC}/*.hpp")
foreach(header IN LISTS headers)
  file(RELATIVE_PATH rel "${SRC}" "${header}")
  if(rel STREQUAL "core/failure_model.hpp" OR
     rel STREQUAL "scenario/scenario.hpp")
    continue()
  endif()
  file(STRINGS "${header}" hits REGEX "FailureModel[ \t]*&")
  foreach(hit IN LISTS hits)
    string(STRIP "${hit}" hit)
    list(APPEND violations "${rel}: FailureModel& adapter: ${hit}")
  endforeach()
endforeach()

file(GLOB_RECURSE files "${SRC}/*")
foreach(path IN LISTS files)
  file(RELATIVE_PATH rel "${SRC}" "${path}")
  if(rel MATCHES "level_parallel")
    list(APPEND violations "${rel}: level_parallel file")
  endif()
  file(STRINGS "${path}" hits REGEX "level_parallel")
  foreach(hit IN LISTS hits)
    string(STRIP "${hit}" hit)
    list(APPEND violations "${rel}: level_parallel: ${hit}")
  endforeach()
endforeach()

list(LENGTH headers header_count)
if(header_count EQUAL 0)
  message(FATAL_ERROR "one_entry_per_method: no headers under ${SRC}")
endif()

if(violations)
  list(JOIN violations "\n  " report)
  message(FATAL_ERROR "one_entry_per_method violated:\n  ${report}")
endif()
message(STATUS "one_entry_per_method: ${header_count} headers clean")
