# Include order of src/: every directory may include only directories ranked
# below it, so the libraries form a stack with no header cycle.
#
#   common 0 < obs 1 < sim, rt 2 < vv 3 < graph, metadata, net 4 < repl 5
#   < workload 6
#
# src/sim/scenario.{h,cc} is the scenario engine over vv and graph worlds; it
# sits in sim/ but ranks as workload, both as includer and as included.
# Fails, listing each file and include, when a quoted include names a
# same-or-higher-ranked other directory, or a directory with no rank.
#
# Invoked from ctest:
#   cmake -DSRC=<repo>/src -P layering.cmake
if(NOT DEFINED SRC)
  message(FATAL_ERROR "pass -DSRC=<src dir>")
endif()

set(rank_common 0)
set(rank_obs 1)
set(rank_sim 2)
set(rank_rt 2)
set(rank_vv 3)
set(rank_graph 4)
set(rank_metadata 4)
set(rank_net 4)
set(rank_repl 5)
set(rank_workload 6)

# The layer (directory name, or "workload" for the scenario engine) of a path
# relative to src/.
function(layer_of path out)
  if(path MATCHES "^sim/scenario\\.(h|cc)$")
    set(${out} workload PARENT_SCOPE)
  else()
    string(REGEX REPLACE "/.*" "" dir "${path}")
    set(${out} ${dir} PARENT_SCOPE)
  endif()
endfunction()

file(GLOB_RECURSE files RELATIVE ${SRC} ${SRC}/*.h ${SRC}/*.cc)
if(NOT files)
  message(FATAL_ERROR "no sources under ${SRC}")
endif()

set(violations "")
foreach(f ${files})
  layer_of(${f} own)
  if(NOT DEFINED rank_${own})
    string(APPEND violations "\n  ${f}: directory '${own}' has no rank")
    continue()
  endif()
  file(STRINGS ${SRC}/${f} lines REGEX "^[ \t]*#[ \t]*include[ \t]*\"[^\"]+/")
  foreach(line ${lines})
    string(REGEX MATCH "\"[^\"]+\"" inc "${line}")
    string(REPLACE "\"" "" inc "${inc}")
    layer_of(${inc} dep)
    if(dep STREQUAL own)
      continue()
    endif()
    if(NOT DEFINED rank_${dep})
      string(APPEND violations "\n  ${f}: #include \"${inc}\" (unranked '${dep}')")
    elseif(NOT rank_${dep} LESS rank_${own})
      string(APPEND violations
             "\n  ${f}: #include \"${inc}\" (${dep} ${rank_${dep}} >= ${own} ${rank_${own}})")
    endif()
  endforeach()
endforeach()

if(violations)
  message(FATAL_ERROR "src/ include order violated:${violations}")
endif()
list(LENGTH files n)
message(STATUS "src_layering: ${n} files, include order holds")
