# Runs one paper bench with --quick and compares its stdout, minus the
# model-cache lines and with its wall-clock fields masked, with a committed
# golden file under results/quick/.
#
#   cmake -DBENCH=<bench binary> -DGOLDEN=<golden file> -P quick_golden.cmake
#   cmake -DBENCH=<bench binary> -DMODE=train -P quick_golden.cmake
#
# MODE=train deletes the cached quick models next to BENCH and runs BENCH
# once, so it trains and caches a fresh default one from the current
# code. The ctest fixture in bench/CMakeLists.txt runs it before the
# comparisons, which then all load that one model; Table IV trains the
# masked one itself.
#
# The masked wall-clock fields are Table V's: each "N.N ms/img" timing and
# the "speedup ...: N.Nx" ratio; no other golden bench prints them. They
# read as those literal strings in the golden file.
#
# A paper output that is meant to change is regenerated in the same diff:
#   build/bench/<bench> --quick | grep -v '^\[bench\] \(loaded cached model\|training one-stage\|cached model to\)' | sed -E 's/ +[0-9]+\.[0-9]+ ms\/img/ N.N ms\/img/; s/(speedup[^:]*: )[0-9]+\.[0-9]+x/\1N.Nx/' > results/quick/<bench>.txt
cmake_minimum_required(VERSION 3.16)

get_filename_component(bench_dir "${BENCH}" DIRECTORY)
get_filename_component(bench_name "${BENCH}" NAME)
if(MODE STREQUAL "train")
  file(REMOVE "${bench_dir}/darpa_model_default_quick.bin"
              "${bench_dir}/darpa_model_masked_quick.bin")
endif()

execute_process(COMMAND "${BENCH}" --quick
                OUTPUT_VARIABLE actual
                ERROR_VARIABLE errors
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${bench_name} --quick exited with ${status}\n${errors}")
endif()
if(MODE STREQUAL "train")
  return()
endif()

# A model-cache line reads "loaded cached model ..." when the model was
# cached and "training ..." plus "cached model to ..." when it was not.
string(REGEX REPLACE
       "\\[bench\\] (loaded cached model|training one-stage detector|cached model to)[^\n]*\n"
       "" actual "${actual}")
# Wall-clock fields, which differ from run to run.
string(REGEX REPLACE " +[0-9]+\\.[0-9]+ ms/img" " N.N ms/img" actual "${actual}")
string(REGEX REPLACE "(speedup[^:\n]*: )[0-9]+\\.[0-9]+x" "\\1N.Nx" actual
       "${actual}")
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  set(actual_file "${bench_dir}/${bench_name}.quick.actual.txt")
  file(WRITE "${actual_file}" "${actual}")
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND "${DIFF}" -u "${GOLDEN}" "${actual_file}"
                    OUTPUT_VARIABLE delta)
  endif()
  message(FATAL_ERROR
          "${bench_name} --quick differs from ${GOLDEN}\n"
          "(actual output: ${actual_file})\n${delta}")
endif()
