# Crash-recovery smoke campaign (CTest label: recovery). Drives afex_cli's
# --backend=real over the afex_txengine WAL/page-store target with the
# storage-failure mode axis and the two-phase --recovery-cmd/--verify-cmd
# flow, and asserts the campaign finds every planted recovery bug:
#   * lost-fsync durability hole  — "lost committed txn" (drop_sync)
#   * torn-page blindness         — verifier-reported "torn page" above the
#                                   checkpoint (short_write)
#   * post-commit redo divergence — "diverges" (kill_at mid page apply)
#   * refused recovery            — "unrecoverable torn page" below the
#                                   checkpoint (short_write), recfail=1
# Each is confirmed by the recovery/verify phase that flagged it (recfail=1
# or inv=1 on the same journal line as the folded first-line message).
# Both exec modes run the same exhaustive campaign with a kill-and-resume
# leg that resumes from the journal alone (its stored recipe); the exported
# records must be byte-identical. afex_txengine never adopts the persistent
# hook, so the persistent leg runs the non-adopting path end to end. Most of the space can never fire (a kind that does not
# apply to the function, or a call past what the workload makes), and
# each leg must answer some of those points from the fault-free run
# (real.noop_answer samples > 0). Whether a never-firing point really leaves the
# run fault-free is checked live, point by point, in exec_test
# (NoopAnswerTest.UntriggeredReadBackPointsNeverFailLive). Many crash points
# leave the same state on disk, so each leg must also answer some
# recover/verify pairs from a crash state seen before (real.state_answered
# > 0, and the report's synopsis line saying so), and no determinism
# sample may disagree (real.state_mismatch absent or 0). Metrics + trace artifacts land in OUTPUT_DIR for CI upload.
# Invoked via cmake -P.

file(MAKE_DIRECTORY "${OUTPUT_DIR}")

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
endfunction()

# The storage-failure space: every mode against every plausible function at
# every call ordinal test 1 reaches. retval is pinned at 20 — it doubles as
# the short_write byte count K, small enough to tear any 256-byte page
# write. Mode/function combos that make no sense (short_write on rename,
# crash_after_rename on fsync, ...) are valid points the harness runs
# fault-free, so exhaustive enumeration stays total.
set(space_file "${OUTPUT_DIR}/storage_space.afex")
file(WRITE "${space_file}" "txstorage
test : [1,1]
function : { write, fsync, rename }
call : [1,40]
retval : [20,20]
mode : { kill_at, short_write, drop_sync, crash_after_rename }
;
")

set(full_budget 480)
set(interrupted_budget 160)

foreach(mode spawn persistent)
  set(journal "${OUTPUT_DIR}/recovery_${mode}.afexj")
  set(export_file "${OUTPUT_DIR}/recovery_${mode}.csv")
  set(leg1_metrics_file "${OUTPUT_DIR}/recovery_${mode}_leg1_metrics.json")
  set(metrics_file "${OUTPUT_DIR}/recovery_${mode}_metrics.json")
  set(trace_file "${OUTPUT_DIR}/recovery_${mode}_trace.json")
  file(REMOVE "${journal}" "${export_file}" "${leg1_metrics_file}" "${metrics_file}"
    "${trace_file}")

  run_cli(leg1 --backend=real "--target-cmd=${AFEX_TXENGINE} workload {test}"
    "--recovery-cmd=${AFEX_TXENGINE} recover" "--verify-cmd=${AFEX_TXENGINE} verify"
    "--interposer=${AFEX_INTERPOSER}" "--space=${space_file}" --strategy=exhaustive
    --timeout-ms=10000 --budget=${interrupted_budget} --seed=1 --exec-mode=${mode}
    "--journal=${journal}" "--metrics-file=${leg1_metrics_file}")
  # The resume takes the campaign from the journal's recipe: only the
  # larger budget and the output flags are given.
  run_cli(leg2 "--journal=${journal}" --resume --budget=${full_budget}
    --export=csv "--export-file=${export_file}"
    "--metrics-file=${metrics_file}" "--trace-file=${trace_file}")
  if(NOT leg2 MATCHES "resumed ${interrupted_budget} journaled tests")
    message(FATAL_ERROR
      "${mode}: resume did not replay ${interrupted_budget} tests:\n${leg2}")
  endif()
  if(NOT leg2 MATCHES "executed ${full_budget} tests")
    message(FATAL_ERROR
      "${mode}: resume did not reach the full ${full_budget}-point sweep:\n${leg2}")
  endif()

  # Every planted bug must be in the journal, tied to the phase that caught
  # it (details are %-escaped in journal lines: space = %20, colon = %3A).
  file(READ "${journal}" journal_text)
  foreach(signature
      "lost%20committed%20txn"                      # durability hole, verify
      "txengine-verify%3A%20torn%20page"            # torn-page blindness, verify
      "diverges"                                    # redo divergence, verify
      "unrecoverable%20torn%20page"                 # refused recovery
      "recfail=1"
      "inv=1")
    if(NOT journal_text MATCHES "${signature}")
      message(FATAL_ERROR
        "${mode}: journal is missing planted-bug signature '${signature}'")
    endif()
  endforeach()

  # Two-phase telemetry: the recovery/verify sub-phases must be timed in
  # both legs. The facet counters are checked against leg 1 — lexicographic
  # enumeration puts every `function=write` point (where the recfail/inv
  # faults live) inside the first ${interrupted_budget} tests, and resumed
  # records replay without re-running, so leg 2's counters stay clean.
  file(READ "${metrics_file}" metrics_json)
  foreach(phase real.recovery_run real.verify)
    string(JSON phase_count GET "${metrics_json}" histograms ${phase} count)
    if(phase_count EQUAL 0)
      message(FATAL_ERROR "${mode}: metrics recorded no ${phase} samples")
    endif()
  endforeach()
  file(READ "${leg1_metrics_file}" leg1_metrics_json)
  foreach(counter real.recovery_failed real.invariant_violated)
    string(JSON counter_value GET "${leg1_metrics_json}" counters ${counter})
    if(counter_value EQUAL 0)
      message(FATAL_ERROR "${mode}: counter ${counter} is zero")
    endif()
  endforeach()
  # Both legs answer never-firing points from the fault-free run (each leg
  # is a fresh process, so each starts with a cold cache).
  foreach(json leg1_metrics_json metrics_json)
    string(JSON answered ERROR_VARIABLE json_error
      GET "${${json}}" histograms real.noop_answer count)
    if(NOT answered GREATER 0)
      message(FATAL_ERROR
        "${mode}: ${json} has real.noop_answer count = '${answered}', expected > 0")
    endif()
    # Repeated crash states answer recover/verify, and every determinism
    # sample of a state agrees with its first run.
    string(JSON states ERROR_VARIABLE json_error GET "${${json}}" counters real.state_answered)
    if(NOT states GREATER 0)
      message(FATAL_ERROR "${mode}: ${json} has real.state_answered = '${states}', expected > 0")
    endif()
    string(JSON mismatches ERROR_VARIABLE json_error GET "${${json}}" counters real.state_mismatch)
    if(json_error STREQUAL "NOTFOUND" AND NOT mismatches EQUAL 0)
      message(FATAL_ERROR "${mode}: ${json} has real.state_mismatch = ${mismatches}, expected 0")
    endif()
  endforeach()
  foreach(leg leg1 leg2)
    if(NOT ${leg} MATCHES "\n[1-9][0-9]* recover/verify pairs answered from crash-state digests")
      message(FATAL_ERROR "${mode}: ${leg}'s report lacks the crash-state synopsis line:\n${${leg}}")
    endif()
  endforeach()
  # The export carries the two-phase flags: a verifier-confirmed finding is
  # an invariant_violated row, a refused recovery a recovery_failed one
  # (the last four columns: recovery_failed, invariant_violated, exit_code,
  # new_blocks).
  file(READ "${export_file}" export_csv)
  if(NOT export_csv MATCHES ",recovery_failed,invariant_violated,exit_code,new_blocks\n")
    message(FATAL_ERROR "${mode}: export header lacks the two-phase columns")
  endif()
  if(NOT export_csv MATCHES ",[01],1,-?[0-9]+,[0-9]+\n")
    message(FATAL_ERROR "${mode}: no exported row has invariant_violated set")
  endif()
  if(NOT export_csv MATCHES ",1,[01],-?[0-9]+,[0-9]+\n")
    message(FATAL_ERROR "${mode}: no exported row has recovery_failed set")
  endif()
  file(READ "${trace_file}" trace_json)
  string(JSON trace_events LENGTH "${trace_json}" traceEvents)
  if(trace_events EQUAL 0)
    message(FATAL_ERROR "${mode}: trace file has no events")
  endif()
endforeach()

# Record-identical across exec modes, kills and torn writes included.
file(READ "${OUTPUT_DIR}/recovery_spawn.csv" spawn_csv)
file(READ "${OUTPUT_DIR}/recovery_persistent.csv" persistent_csv)
if(NOT spawn_csv STREQUAL persistent_csv)
  message(FATAL_ERROR
    "spawn and persistent storage-failure campaigns diverged:\n${persistent_csv}")
endif()

message(STATUS
  "recovery smoke: all planted bugs found and phase-confirmed in both exec "
  "modes, kill-and-resume record-identical, never-firing points and repeated "
  "crash states answered")
