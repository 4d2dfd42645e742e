# Runs afex_cli end to end and asserts (a) exit code 0 and (b) a non-empty
# report on stdout. Then exercises the durable-campaign path: a first leg
# journals part of the budget, a second leg resumes from the journal, and
# the combined test count must equal the full budget — for both serial and
# --jobs execution. Invoked by CTest via cmake -P.

function(run_cli out_var)
  execute_process(
    COMMAND ${AFEX_CLI} ${ARGN}
    OUTPUT_VARIABLE cli_stdout
    ERROR_VARIABLE cli_stderr
    RESULT_VARIABLE cli_status)
  if(NOT cli_status EQUAL 0)
    message(FATAL_ERROR
      "afex_cli ${ARGN} exited with status ${cli_status}\nstderr:\n${cli_stderr}")
  endif()
  set(${out_var} "${cli_stdout}" PARENT_SCOPE)
  set(${out_var}_stderr "${cli_stderr}" PARENT_SCOPE)
endfunction()

# Asserts the CLI rejects the flags with exit status 2 and a stderr
# message matching `expect_pattern`.
function(expect_cli_error expect_pattern)
  execute_process(
    COMMAND ${AFEX_CLI} ${ARGN}
    OUTPUT_VARIABLE cli_stdout
    ERROR_VARIABLE cli_stderr
    RESULT_VARIABLE cli_status)
  if(NOT cli_status EQUAL 2)
    message(FATAL_ERROR "afex_cli ${ARGN} was expected to exit 2 but exited ${cli_status}")
  endif()
  if(NOT cli_stderr MATCHES "${expect_pattern}")
    message(FATAL_ERROR
      "afex_cli ${ARGN} failed but stderr did not match '${expect_pattern}':\n${cli_stderr}")
  endif()
endfunction()

run_cli(cli_stdout --target=minidb --strategy=fitness --budget=50 --seed=1)

string(STRIP "${cli_stdout}" cli_stdout_stripped)
if(cli_stdout_stripped STREQUAL "")
  message(FATAL_ERROR "afex_cli exited 0 but produced an empty report")
endif()

string(LENGTH "${cli_stdout_stripped}" report_len)
message(STATUS "afex_cli report: ${report_len} bytes, exit 0")

# --- kill-and-resume smoke, serial -----------------------------------------
set(journal "${CMAKE_CURRENT_BINARY_DIR}/smoke_serial.afexj")
file(REMOVE "${journal}")
run_cli(first_leg --target=minidb --budget=20 --seed=1 "--journal=${journal}")
run_cli(second_leg --target=minidb --budget=50 --seed=1 "--journal=${journal}" --resume)
if(NOT second_leg MATCHES "resumed 20 journaled tests")
  message(FATAL_ERROR "serial resume did not replay 20 tests:\n${second_leg}")
endif()
if(NOT second_leg MATCHES "executed 50 tests")
  message(FATAL_ERROR
    "serial resume did not reach the combined 50-test budget:\n${second_leg}")
endif()
message(STATUS "serial kill-and-resume: 20 journaled + 30 new = 50")

# --- kill-and-resume smoke, cluster mode -----------------------------------
set(journal "${CMAKE_CURRENT_BINARY_DIR}/smoke_jobs.afexj")
file(REMOVE "${journal}")
run_cli(first_leg --target=minidb --budget=20 --seed=1 --jobs=2 "--journal=${journal}")
run_cli(second_leg --target=minidb --budget=50 --seed=1 --jobs=2 "--journal=${journal}" --resume)
if(NOT second_leg MATCHES "executed 50 tests")
  message(FATAL_ERROR
    "--jobs resume did not reach the combined 50-test budget:\n${second_leg}")
endif()
message(STATUS "cluster kill-and-resume: combined budget reached under --jobs=2")

# --- resume from the journal's recipe ---------------------------------------
# The journal stores the campaign's recipe: a conflicting recipe flag given
# with --resume exits 2 naming the flag and both values, and the journal
# alone (plus a larger --budget) continues the campaign.
set(journal "${CMAKE_CURRENT_BINARY_DIR}/smoke_recipe.afexj")
file(REMOVE "${journal}")
run_cli(recipe_leg1 --target=minidb --budget=20 --seed=1 "--journal=${journal}")
expect_cli_error("--seed conflicts with the journal's recipe: journal has '1', command line has '2'"
  --resume "--journal=${journal}" --budget=50 --seed=2)
run_cli(recipe_leg2 --resume "--journal=${journal}" --budget=50)
if(NOT recipe_leg2 MATCHES "resumed 20 journaled tests" OR
   NOT recipe_leg2 MATCHES "executed 50 tests")
  message(FATAL_ERROR "journal-only resume did not continue to 50 tests:\n${recipe_leg2}")
endif()
message(STATUS "recipe resume: conflicting --seed rejected, journal-only resume reached 50")

# --- backend flag validation ------------------------------------------------
expect_cli_error("--backend expects 'sim' or 'real'" --backend=bogus --budget=5)
expect_cli_error("--backend=real requires --target-cmd"
  --backend=real --budget=5)
expect_cli_error("--target-cmd only applies to --backend=real"
  --target=minidb --budget=5 "--target-cmd=/bin/true")
expect_cli_error("--num-tests only applies to --backend=real" --target=minidb --budget=5 --num-tests=9)
expect_cli_error("the system under test is --target-cmd"
  --backend=real "--target-cmd=/bin/true" --target=minidb --budget=5)
expect_cli_error("--timeout-ms expects an integer"
  --backend=real "--target-cmd=/bin/true" --budget=5 --timeout-ms=abc)
expect_cli_error("does not exist"
  --backend=real "--target-cmd=/nonexistent/afex/binary {test}" --budget=5)
expect_cli_error("does not exist in .PATH"
  --backend=real "--target-cmd=afex-no-such-command-xyz" --budget=5)
expect_cli_error("--interposer '.*' does not exist"
  --backend=real "--target-cmd=${AFEX_WALUTIL}" --budget=5
  "--interposer=${CMAKE_CURRENT_BINARY_DIR}/no_such_interposer.so")
expect_cli_error("--auto-space only applies to --backend=real"
  --target=minidb --budget=5 --auto-space)
expect_cli_error("--exec-mode expects 'spawn' or 'persistent'"
  --backend=real "--target-cmd=${AFEX_WALUTIL} {test}" "--interposer=${AFEX_INTERPOSER}"
  --budget=5 --exec-mode=turbo)
expect_cli_error("--exec-mode only applies to --backend=real"
  --target=minidb --budget=5 --exec-mode=persistent)
set(space_file "${CMAKE_CURRENT_BINARY_DIR}/smoke_space.afex")
file(WRITE "${space_file}" "real\ntest : [1,2]\nfunction : { read, write }\ncall : [1,2]\n;\n")
expect_cli_error("conflicts with --space"
  --backend=real "--target-cmd=${AFEX_WALUTIL}" "--interposer=${AFEX_INTERPOSER}"
  --budget=5 --auto-space "--space=${space_file}")
message(STATUS "backend flag validation: bad flags rejected")

# --- static analysis: --space import check + --auto-space -------------------
# A hand-written space naming a function walutil never imports must be
# rejected before any test runs.
set(bad_space "${CMAKE_CURRENT_BINARY_DIR}/smoke_unimported.afex")
file(WRITE "${bad_space}" "real\ntest : [1,2]\nfunction : { accept, read }\ncall : [1,2]\n;\n")
expect_cli_error("never imports: accept"
  --backend=real "--target-cmd=${AFEX_WALUTIL} {test}" "--interposer=${AFEX_INTERPOSER}"
  --budget=5 "--space=${bad_space}")

# --auto-space prunes the function axis to walutil's 15 imports and prints
# both space sizes (the acceptance assertion for the pruning).
run_cli(auto_leg --backend=real "--target-cmd=${AFEX_WALUTIL} {test}" --num-tests=2
  "--interposer=${AFEX_INTERPOSER}" --timeout-ms=10000 --max-call=2 --budget=15 --seed=1
  --auto-space)
if(NOT auto_leg MATCHES "pruned function axis to 15 of 26 interposable functions; 60 of 104 points")
  message(FATAL_ERROR "--auto-space did not report the pruned space sizes:\n${auto_leg}")
endif()
if(NOT auto_leg MATCHES "seeded 15 priority hints from callsite weights")
  message(FATAL_ERROR "--auto-space did not seed callsite-weight priors:\n${auto_leg}")
endif()
if(NOT auto_leg MATCHES "space 'real:afex_walutil' with 60 points")
  message(FATAL_ERROR "--auto-space campaign did not run over the pruned space:\n${auto_leg}")
endif()
message(STATUS "static analysis: unimported space rejected, auto-space pruned 104 -> 60")

# --- real-process backend end to end ----------------------------------------
# A real fitness campaign against the sample walutil target: journal a first
# leg, assert an actually-injected site landed in the journal (trig=1), then
# kill-and-resume to the full budget.
set(journal "${CMAKE_CURRENT_BINARY_DIR}/smoke_real.afexj")
file(REMOVE "${journal}")
run_cli(real_leg1 --backend=real "--target-cmd=${AFEX_WALUTIL} {test}" --num-tests=6
  "--interposer=${AFEX_INTERPOSER}" --timeout-ms=10000 --budget=12 --seed=1
  "--journal=${journal}")
file(READ "${journal}" journal_text)
if(NOT journal_text MATCHES "trig=1")
  message(FATAL_ERROR
    "real-backend journal has no injected-site hit (trig=1):\n${journal_text}")
endif()
run_cli(real_leg2 --backend=real "--target-cmd=${AFEX_WALUTIL} {test}" --num-tests=6
  "--interposer=${AFEX_INTERPOSER}" --timeout-ms=10000 --budget=25 --seed=1
  "--journal=${journal}" --resume)
if(NOT real_leg2 MATCHES "resumed 12 journaled tests")
  message(FATAL_ERROR "real-backend resume did not replay 12 tests:\n${real_leg2}")
endif()
if(NOT real_leg2 MATCHES "executed 25 tests")
  message(FATAL_ERROR
    "real-backend resume did not reach the combined 25-test budget:\n${real_leg2}")
endif()
message(STATUS "real-backend campaign: injected site journaled, kill-and-resume ok")

# --- exec modes: determinism across spawn / persistent ----------------------
# Exec-mode equivalence end to end through the CLI: the same seeded
# campaign — including a kill-and-resume under --jobs=2 — must export
# byte-identical records in both exec modes.
foreach(mode spawn persistent)
  set(journal "${CMAKE_CURRENT_BINARY_DIR}/smoke_mode_${mode}.afexj")
  set(mode_export "${CMAKE_CURRENT_BINARY_DIR}/smoke_mode_${mode}.csv")
  file(REMOVE "${journal}" "${mode_export}")
  run_cli(mode_leg1 --backend=real "--target-cmd=${AFEX_WALUTIL} {test}" --num-tests=6
    "--interposer=${AFEX_INTERPOSER}" --timeout-ms=10000 --budget=10 --seed=3
    --exec-mode=${mode} --jobs=2 "--journal=${journal}")
  run_cli(mode_leg2 --backend=real "--target-cmd=${AFEX_WALUTIL} {test}" --num-tests=6
    "--interposer=${AFEX_INTERPOSER}" --timeout-ms=10000 --budget=24 --seed=3
    --exec-mode=${mode} --jobs=2 "--journal=${journal}" --resume
    --export=csv "--export-file=${mode_export}")
  if(NOT mode_leg2 MATCHES "executed 24 tests")
    message(FATAL_ERROR
      "--exec-mode=${mode} resume did not reach the combined 24-test budget:\n${mode_leg2}")
  endif()
  file(READ "${mode_export}" mode_csv)
  if(mode STREQUAL "spawn")
    set(spawn_csv "${mode_csv}")
  elseif(NOT mode_csv STREQUAL spawn_csv)
    message(FATAL_ERROR
      "--exec-mode=${mode} produced records different from spawn mode:\n${mode_csv}")
  endif()
endforeach()
message(STATUS
  "exec modes: spawn/persistent kill-and-resume under --jobs=2 record-identical")

# --- telemetry flag validation ----------------------------------------------
expect_cli_error("--log-level expects debug.info.warn.error.off"
  --target=minidb --budget=5 --log-level=loud)
expect_cli_error("--verbose is an alias for --log-level=info"
  --target=minidb --budget=5 --verbose --log-level=warn)
expect_cli_error("--status-interval expects seconds > 0"
  --target=minidb --budget=5 --status-interval=0)
message(STATUS "telemetry flag validation: bad flags rejected")

# --- telemetry: sim campaign ------------------------------------------------
# A sim campaign with every telemetry output on: the metrics snapshot must
# record every pipeline phase, the trace must be loadable JSON with events,
# progress lines must land on stderr, and the --export JSON must embed the
# same snapshot.
set(metrics_file "${CMAKE_CURRENT_BINARY_DIR}/smoke_metrics.json")
set(trace_file "${CMAKE_CURRENT_BINARY_DIR}/smoke_trace.json")
set(export_file "${CMAKE_CURRENT_BINARY_DIR}/smoke_export.json")
file(REMOVE "${metrics_file}" "${trace_file}" "${export_file}")
run_cli(telemetry_leg --target=minidb --strategy=fitness --budget=5000 --seed=1
  "--metrics-file=${metrics_file}" "--trace-file=${trace_file}" --status-interval=0.001
  --export=json "--export-file=${export_file}")
file(READ "${metrics_file}" metrics_json)
foreach(phase explorer.next backend.run cluster.observe sim.decode sim.run sim.feedback_merge)
  string(JSON phase_count GET "${metrics_json}" histograms ${phase} count)
  if(NOT phase_count EQUAL 5000)
    message(FATAL_ERROR
      "sim metrics snapshot: ${phase} count = ${phase_count}, expected 5000")
  endif()
  string(JSON phase_sum GET "${metrics_json}" histograms ${phase} sum_ns)
  if(phase_sum EQUAL 0)
    message(FATAL_ERROR "sim metrics snapshot: ${phase} recorded zero total time")
  endif()
endforeach()
file(READ "${trace_file}" trace_json)
string(JSON trace_events LENGTH "${trace_json}" traceEvents)
if(trace_events EQUAL 0)
  message(FATAL_ERROR "trace file has no events:\n${trace_json}")
endif()
if(NOT telemetry_leg_stderr MATCHES "progress: [0-9]+/5000 tests")
  message(FATAL_ERROR
    "--status-interval produced no progress line on stderr:\n${telemetry_leg_stderr}")
endif()
if(NOT telemetry_leg MATCHES "telemetry: pipeline")
  message(FATAL_ERROR "report synopsis has no telemetry line:\n${telemetry_leg}")
endif()
file(READ "${export_file}" export_json)
string(JSON export_backend_count GET "${export_json}" metrics histograms backend.run count)
if(NOT export_backend_count EQUAL 5000)
  message(FATAL_ERROR
    "--export JSON metrics block: backend.run count = ${export_backend_count}, expected 5000")
endif()
message(STATUS
  "sim telemetry: metrics/trace/export written, ${trace_events} trace events, progress on stderr")

# --- telemetry: real-process campaign ---------------------------------------
# Sets `out` to the tests of a `budget`-test real campaign that ran live: the
# rest were answered from their test's fault-free run (real.noop_answered,
# each timed as one real.noop_answer phase, no process started).
function(live_test_count metrics_json budget out)
  string(JSON answered ERROR_VARIABLE json_error GET "${metrics_json}" counters real.noop_answered)
  if(answered MATCHES "NOTFOUND")
    set(answered 0)
  endif()
  string(JSON answer_count ERROR_VARIABLE json_error
    GET "${metrics_json}" histograms real.noop_answer count)
  if(answer_count MATCHES "NOTFOUND")
    set(answer_count 0)
  endif()
  if(NOT answer_count EQUAL answered)
    message(FATAL_ERROR
      "real metrics: real.noop_answer count = ${answer_count}, real.noop_answered = ${answered}")
  endif()
  math(EXPR live "${budget} - ${answered}")
  set(${out} ${live} PARENT_SCOPE)
endfunction()

# The same three flags against the real backend: the real.* sub-phases and
# outcome-breakdown counters must be populated.
set(metrics_file "${CMAKE_CURRENT_BINARY_DIR}/smoke_real_metrics.json")
set(trace_file "${CMAKE_CURRENT_BINARY_DIR}/smoke_real_trace.json")
file(REMOVE "${metrics_file}" "${trace_file}")
run_cli(real_telemetry_leg --backend=real "--target-cmd=${AFEX_WALUTIL} {test}" --num-tests=6
  "--interposer=${AFEX_INTERPOSER}" --timeout-ms=10000 --budget=10 --seed=1
  "--metrics-file=${metrics_file}" "--trace-file=${trace_file}")
file(READ "${metrics_file}" metrics_json)
live_test_count("${metrics_json}" 10 live_tests)
string(JSON phase_count GET "${metrics_json}" histograms backend.run count)
if(NOT phase_count EQUAL 10)
  message(FATAL_ERROR
    "real metrics snapshot: backend.run count = ${phase_count}, expected 10")
endif()
foreach(phase real.plan_write real.fork_exec real.child_wait real.feedback_read
        real.scratch_cleanup)
  string(JSON phase_count GET "${metrics_json}" histograms ${phase} count)
  if(NOT phase_count EQUAL live_tests)
    message(FATAL_ERROR
      "real metrics snapshot: ${phase} count = ${phase_count}, expected ${live_tests}")
  endif()
endforeach()
string(JSON feedback_ok GET "${metrics_json}" counters real.feedback_ok)
if(NOT feedback_ok EQUAL live_tests)
  message(FATAL_ERROR
    "real metrics snapshot: real.feedback_ok = ${feedback_ok}, expected ${live_tests}")
endif()
# The report synopsis states the answered share.
math(EXPR answered "10 - ${live_tests}")
if(answered GREATER 0 AND
   NOT real_telemetry_leg MATCHES "${answered} of 10 tests answered from fault-free call counts")
  message(FATAL_ERROR "real campaign synopsis lacks the answered share:\n${real_telemetry_leg}")
endif()
file(READ "${trace_file}" trace_json)
string(JSON trace_events LENGTH "${trace_json}" traceEvents)
if(trace_events EQUAL 0)
  message(FATAL_ERROR "real-backend trace file has no events:\n${trace_json}")
endif()
message(STATUS "real telemetry: sub-phase timers and outcome counters populated")

# --- telemetry: persistent mode ---------------------------------------------
# Persistent campaigns time the pipe round-trip instead of the spawn-mode
# per-test phases: real.fs_roundtrip must cover every live test, and the
# phases whose cost the server eliminates (plan_write/fork_exec/child_wait)
# must be absent from the snapshot entirely.
set(metrics_file "${CMAKE_CURRENT_BINARY_DIR}/smoke_fs_metrics.json")
file(REMOVE "${metrics_file}")
run_cli(fs_telemetry_leg --backend=real "--target-cmd=${AFEX_WALUTIL} {test}" --num-tests=6
  "--interposer=${AFEX_INTERPOSER}" --timeout-ms=10000 --budget=10 --seed=1
  --exec-mode=persistent "--metrics-file=${metrics_file}")
file(READ "${metrics_file}" metrics_json)
live_test_count("${metrics_json}" 10 live_tests)
string(JSON roundtrip_count GET "${metrics_json}" histograms real.fs_roundtrip count)
if(NOT roundtrip_count EQUAL live_tests)
  message(FATAL_ERROR
    "persistent metrics: real.fs_roundtrip count = ${roundtrip_count}, expected ${live_tests}")
endif()
string(JSON restart_count GET "${metrics_json}" histograms real.fs_restart count)
if(NOT restart_count EQUAL 1)
  message(FATAL_ERROR
    "persistent metrics: real.fs_restart count = ${restart_count}, expected 1 (initial spawn)")
endif()
string(JSON feedback_ok GET "${metrics_json}" counters real.feedback_ok)
if(NOT feedback_ok EQUAL live_tests)
  message(FATAL_ERROR
    "persistent metrics: real.feedback_ok = ${feedback_ok}, expected ${live_tests}")
endif()
foreach(phase real.plan_write real.fork_exec real.child_wait)
  string(JSON phase_count ERROR_VARIABLE json_error GET "${metrics_json}" histograms ${phase} count)
  if(NOT phase_count MATCHES "NOTFOUND")
    message(FATAL_ERROR
      "persistent metrics: spawn-mode phase ${phase} is in the snapshot "
      "(count ${phase_count}), expected it absent")
  endif()
endforeach()
message(STATUS "persistent telemetry: per-test cost is one pipe round-trip")

# --- coverage signal selection ----------------------------------------------
expect_cli_error("--coverage expects 'auto', 'proxy', or 'edges'"
  --backend=real "--target-cmd=${AFEX_WALUTIL} {test}" "--interposer=${AFEX_INTERPOSER}"
  --budget=5 --coverage=branches)
expect_cli_error("--coverage only applies to --backend=real"
  --target=minidb --budget=5 --coverage=edges)
# --coverage=edges against the uninstrumented build must fail before any
# test runs.
expect_cli_error("not sancov-instrumented"
  --backend=real "--target-cmd=${AFEX_WALUTIL} {test}" "--interposer=${AFEX_INTERPOSER}"
  --timeout-ms=10000 --budget=5 --coverage=edges)
# Proxy fallback is behavior-preserving: on an uninstrumented target,
# --coverage=auto resolves to the proxy and the records must be identical
# to an explicit --coverage=proxy run.
set(proxy_export "${CMAKE_CURRENT_BINARY_DIR}/smoke_cov_proxy.csv")
set(auto_export "${CMAKE_CURRENT_BINARY_DIR}/smoke_cov_auto.csv")
file(REMOVE "${proxy_export}" "${auto_export}")
run_cli(cov_proxy_leg --backend=real "--target-cmd=${AFEX_WALUTIL} {test}" --num-tests=6
  "--interposer=${AFEX_INTERPOSER}" --timeout-ms=10000 --budget=12 --seed=5
  --coverage=proxy --export=csv "--export-file=${proxy_export}")
run_cli(cov_auto_leg --backend=real "--target-cmd=${AFEX_WALUTIL} {test}" --num-tests=6
  "--interposer=${AFEX_INTERPOSER}" --timeout-ms=10000 --budget=12 --seed=5
  --coverage=auto --export=csv "--export-file=${auto_export}")
file(READ "${proxy_export}" proxy_csv)
file(READ "${auto_export}" auto_csv)
if(NOT proxy_csv STREQUAL auto_csv)
  message(FATAL_ERROR
    "--coverage=auto on an uninstrumented target diverged from --coverage=proxy")
endif()
message(STATUS "coverage flags: bad values rejected, auto falls back to proxy unchanged")

# --- coverage: sancov edge campaign ------------------------------------------
# Only when the toolchain built the instrumented walutil variant.
if(DEFINED AFEX_WALUTIL_COV)
  set(metrics_file "${CMAKE_CURRENT_BINARY_DIR}/smoke_edges_metrics.json")
  file(REMOVE "${metrics_file}")
  run_cli(edges_leg --backend=real "--target-cmd=${AFEX_WALUTIL_COV} {test}" --num-tests=6
    "--interposer=${AFEX_INTERPOSER}" --timeout-ms=10000 --budget=30 --seed=1
    --strategy=fitness --status-interval=0.001 "--metrics-file=${metrics_file}")
  file(READ "${metrics_file}" metrics_json)
  string(JSON edges_total GET "${metrics_json}" gauges real.edges_total)
  if(edges_total LESS_EQUAL 0)
    message(FATAL_ERROR "edge campaign: real.edges_total = ${edges_total}, expected > 0")
  endif()
  string(JSON edges_new GET "${metrics_json}" counters real.edges_new)
  if(edges_new LESS_EQUAL 0)
    message(FATAL_ERROR "edge campaign: real.edges_new = ${edges_new}, expected > 0")
  endif()
  live_test_count("${metrics_json}" 30 live_tests)
  string(JSON merge_count GET "${metrics_json}" histograms real.edge_merge count)
  if(NOT merge_count EQUAL live_tests)
    message(FATAL_ERROR
      "edge campaign: real.edge_merge count = ${merge_count}, expected ${live_tests}")
  endif()
  string(JSON growth_points LENGTH "${metrics_json}" coverage_growth)
  if(growth_points LESS_EQUAL 1)
    message(FATAL_ERROR
      "edge campaign: coverage_growth has ${growth_points} points, expected a curve")
  endif()
  if(NOT edges_leg_stderr MATCHES "blocks")
    message(FATAL_ERROR
      "edge campaign progress line carries no covered-blocks facet:\n${edges_leg_stderr}")
  endif()
  if(NOT edges_leg MATCHES "coverage [0-9]+ blocks by test")
    message(FATAL_ERROR
      "edge campaign synopsis has no coverage-growth note:\n${edges_leg}")
  endif()
  message(STATUS
    "sancov edge campaign: ${edges_total} edges, ${growth_points}-point growth curve")
else()
  message(STATUS "sancov edge campaign: skipped (toolchain lacks -fsanitize-coverage)")
endif()
