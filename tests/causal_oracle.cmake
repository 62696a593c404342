# Causal analyzer oracle gate: dump optrep.causal/v1 traces for small worlds
# with optrep_cli and require optrep_trace --check (the brute-force oracle:
# forward knowledge replay, converge soundness/completeness, critical-path
# recomputation) to agree on every one — including a lossy world exercising
# retry spans and fault edges, a multi-run sweep document, and two worlds on
# the parallel batch engine (--threads) whose sessions take simulated time,
# from link latency and from retry backoff.
#
# Invoked from ctest:  cmake -DCLI=<optrep_cli> -DTRACE=<optrep_trace>
#                            -DOUT=<scratch dir> -P causal_oracle.cmake
if(NOT DEFINED CLI OR NOT DEFINED TRACE OR NOT DEFINED OUT)
  message(FATAL_ERROR "pass -DCLI=, -DTRACE= and -DOUT=")
endif()

file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})

set(cases
  "two_site|state --kind=srv --sites=2 --steps=150 --seed=3"
  "three_site_crv|state --kind=crv --sites=3 --steps=250 --seed=5 --objects=2"
  "four_site|state --kind=srv --sites=4 --steps=400 --seed=7 --latency-ms=2"
  "three_site_lossy|state --kind=srv --sites=3 --steps=200 --seed=11 --loss=0.1 --dup=0.05 --fault-seed=9"
  "sweep|sweep --kind=srv --sites=4 --steps=150 --seeds=4 --threads=2 --seed=13"
  "four_site_batch|state --kind=srv --sites=4 --steps=400 --seed=7 --latency-ms=2 --threads=2"
  "three_site_crv_lossy_batch|state --kind=crv --sites=3 --steps=250 --seed=5 --objects=2 --loss=0.1 --dup=0.05 --fault-seed=9 --threads=2"
)

foreach(case IN LISTS cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 name)
  list(GET parts 1 argstr)
  separate_arguments(args UNIX_COMMAND "${argstr}")
  execute_process(COMMAND ${CLI} ${args} --csv --causal-out=${OUT}/${name}.json
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${CLI} ${name} failed: ${rc}")
  endif()
  if(NOT EXISTS ${OUT}/${name}.json)
    message(FATAL_ERROR "${name}: no causal dump written")
  endif()
  execute_process(COMMAND ${TRACE} ${OUT}/${name}.json --check
                  RESULT_VARIABLE rc OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name}: oracle disagreed (${rc}):\n${stdout}\n${stderr}")
  endif()
  if(NOT stdout MATCHES "oracle agrees")
    message(FATAL_ERROR "${name}: analyzer did not report oracle agreement:\n${stdout}")
  endif()
endforeach()

message(STATUS "causal oracle agrees on all small worlds")
