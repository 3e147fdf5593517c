#!/usr/bin/env python3
"""Validates a BENCH_*.json run report produced by a --json= harness run.

Usage: check_bench_json.py REPORT.json [REPORT2.json ...]

Checks the schema documented in docs/OBSERVABILITY.md (schema_version 11):
required top-level fields with the right types, a non-empty panels list,
and per-run presence of the standard measurement fields — including the
resource-governance fields (stop_reason, verified, verify_error,
deadline_millis) added in schema_version 2. Schema_version 3 adds the
state-substrate counters (state.cow_copies, state.relations_shared,
expand.cache_hits/misses/evictions — validated as non-negative ints
when a run carries metrics) and the micro_bench *_ns substrate timing
fields (required for the "micro" harness, validated as non-negative
numbers wherever present). Schema_version 4 adds a root "threads"
field (the --threads worker count, a positive int) and the parallel
runtime counters (beam.parallel.levels/tasks, runtime.* — validated
like the substrate counters). Schema_version 5 adds per-run
"resumed" (bool) and "checkpoint_writes" (non-negative int) fields and
the checkpoint.* counters (checkpoint.writes/bytes,
checkpoint.resume.rungs_skipped — validated like the substrate
counters). Schema_version 6 adds the optional per-run tracing fields
written by --trace= runs ("trace_path" string, "trace_events" /
"trace_dropped" non-negative ints — the events this run added to its
trace session and how many fell off the ring) and the trace.* counters
(trace.events_recorded/events_dropped — validated like the substrate
counters). Schema_version 7 adds the self-healing runtime: the
"stalled" stop reason (a watchdog-preempted hung rung), the
supervisor.* counters, the optional per-run supervision fields
("stall_preemptions", "memory_reliefs", "rung_retries",
"states_quarantined" — non-negative ints wherever present), and the
micro_bench heartbeat_tick_ns / expand_supervised_ns timings.
Schema_version 8 adds the kernel layer: the micro_bench kernel
timings (edit_short_ns, edit_long_ns, term_hash_ns, term_merge_ns,
estimate_batch_ns), and the TNF-encoding counters
(state.tnf_bytes/encodes, heuristic.levenshtein.tnf_hits/misses —
validated like the substrate counters). Schema_version 9 adds the
compiled executor: an optional per-run "executor" field ("interpreter"
or "compiled" — which execution backend produced the run), the
bench_apply harness fields ("case", "tuples", "apply_ns" required in
every run of the "apply" harness, optional "speedup" on compiled runs
plus "fused_ops"/"interpreted_ops"/"segments" plan-shape counts), and
the executor.fused.* counters (validated like the substrate counters).
Schema_version 10 adds the discovery service: the "error" stop reason
(a served job whose Discover call failed outright), the serve.*
counters, and the serve_loadgen "serve" harness — its "jobs" panel
runs must carry "job_id" / "accepted" / "latency_millis" /
"queue_millis", and its "summary" panel runs the throughput and
overload aggregates (jobs_submitted/accepted/shed/completed/resumed,
jobs_per_sec, p50/p99_millis, shed_rate, max_queue_depth, violations).
Schema_version 11 drops the root "simd_dispatch" field that schema 8
added: the kernels have one implementation, so there is no tier to
record.
Exits non-zero with a line per violation, so it works as a ctest
command.
"""

import json
import sys

SCHEMA_VERSION = 11

STOP_REASONS = {
    "found", "exhausted", "states", "depth", "memory", "deadline",
    "cancelled", "stalled", "error",
}

REQUIRED_TOP = {
    "schema_version": int,
    "harness": str,
    "git_sha": str,
    "seed": int,
    "quick": bool,
    "budget": int,
    "threads": int,
    "panels": list,
}

REQUIRED_RUN = {
    "found": bool,
    "cutoff": bool,
    "stop_reason": str,
    "verified": bool,
    "verify_error": str,
    "deadline_millis": int,
    "states_examined": int,
    "states_generated": int,
    "iterations": int,
    "peak_memory_nodes": int,
    "solution_cost": int,
    "wall_millis": (int, float),
    "resumed": bool,
    "checkpoint_writes": int,
}

# Schema 3: per-substrate timings emitted by micro_bench --json. Required
# in every run of the "micro" harness; optional (but type-checked)
# elsewhere. Schema 6 adds the tracing-overhead pair (Expand with a live
# trace session attached, and the raw per-emit cost).
MICRO_NS_FIELDS = (
    "fingerprint_cold_ns",
    "fingerprint_cached_ns",
    "successor_cold_ns",
    "successor_shared_ns",
    "expand_uncached_ns",
    "expand_cached_ns",
    "expand_traced_ns",
    "trace_emit_ns",
    # Schema 7: supervision-substrate timings (a heartbeat stamp, and
    # Expand through the poison-state quarantine wrapper).
    "heartbeat_tick_ns",
    "expand_supervised_ns",
    # Schema 8: kernel timings (edit distance short/long,
    # bulk term-key hashing, term-vector merge, batched estimation).
    "edit_short_ns",
    "edit_long_ns",
    "term_hash_ns",
    "term_merge_ns",
    "estimate_batch_ns",
)

# Schema 3: counter namespaces for the copy-on-write state substrate and
# the Expand transposition cache. Schema 4 adds the parallel-runtime
# counters; schema 6 the tracing counters. Validated wherever a run has
# metrics.
SUBSTRATE_COUNTER_PREFIXES = ("state.cow", "state.relations", "state.tnf",
                              "expand.cache", "beam.parallel", "runtime.",
                              "checkpoint.", "trace.", "supervisor.",
                              "heuristic.levenshtein.tnf",
                              "executor.fused", "serve.")

# Schema 9: which execution backend produced a run. Optional everywhere,
# required (with the apply fields below) in the "apply" harness.
EXECUTOR_KINDS = {"interpreter", "compiled"}

# Schema 9: per-run fields of the bench_apply harness. "case" names the
# expression shape, "tuples" the instance size, "apply_ns" the measured
# wall time of one apply. Required in every "apply" run; type-checked
# wherever they appear.
APPLY_RUN_FIELDS = {
    "case": str,
    "tuples": int,
    "apply_ns": (int, float),
}

# Schema 9: optional non-negative numeric/int extras on apply runs.
APPLY_OPTIONAL_NUMBERS = ("speedup",)
APPLY_OPTIONAL_COUNTS = ("fused_ops", "interpreted_ops", "segments")

# Schema 10: per-run fields of the serve_loadgen harness, by panel.
# "jobs" runs describe one submitted job (accepted or shed); "summary"
# runs carry the whole-campaign aggregates the overload and
# crash-durability acceptance gates read.
SERVE_JOBS_RUN_FIELDS = {
    "job_id": str,
    "accepted": bool,
    "latency_millis": (int, float),
    "queue_millis": (int, float),
}

SERVE_SUMMARY_COUNTS = (
    "jobs_submitted", "jobs_accepted", "jobs_shed", "jobs_completed",
    "jobs_resumed", "max_queue_depth", "violations",
)
SERVE_SUMMARY_NUMBERS = (
    "jobs_per_sec", "p50_millis", "p99_millis", "shed_rate",
)

# Schema 6: optional per-run tracing fields, present when the harness ran
# with --trace=. Type-checked wherever they appear.
TRACE_RUN_FIELDS = {
    "trace_path": str,
    "trace_events": int,
    "trace_dropped": int,
}

# Schema 7: optional per-run supervision fields, present when the harness
# ran with the self-healing supervisor enabled. Non-negative ints
# wherever they appear.
SUPERVISOR_RUN_FIELDS = (
    "stall_preemptions",
    "memory_reliefs",
    "rung_retries",
    "states_quarantined",
)


def check(path):
    errors = []

    def err(msg):
        errors.append("%s: %s" % (path, msg))

    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return ["%s: unreadable or invalid JSON: %s" % (path, e)]

    if not isinstance(doc, dict):
        return ["%s: top level is not an object" % path]

    for key, want in REQUIRED_TOP.items():
        if key not in doc:
            err("missing top-level field %r" % key)
        elif not isinstance(doc[key], want) or (
            want is int and isinstance(doc[key], bool)
        ):
            err("top-level field %r has type %s, want %s"
                % (key, type(doc[key]).__name__, want.__name__))

    if doc.get("schema_version") != SCHEMA_VERSION:
        err("schema_version is %r, want %d"
            % (doc.get("schema_version"), SCHEMA_VERSION))
    threads = doc.get("threads")
    if isinstance(threads, int) and not isinstance(threads, bool):
        if threads < 1:
            err("threads is %d, want >= 1" % threads)
    sha = doc.get("git_sha", "")
    if isinstance(sha, str) and sha != "unknown" and (
        len(sha) != 40 or not all(c in "0123456789abcdef" for c in sha)
    ):
        err("git_sha %r is neither a 40-hex SHA nor 'unknown'" % sha)

    panels = doc.get("panels")
    if isinstance(panels, list):
        if not panels:
            err("panels list is empty")
        for pi, panel in enumerate(panels):
            if not isinstance(panel, dict):
                err("panel %d is not an object" % pi)
                continue
            if not isinstance(panel.get("name"), str) or not panel["name"]:
                err("panel %d has no name" % pi)
            runs = panel.get("runs")
            if not isinstance(runs, list) or not runs:
                err("panel %d (%s) has no runs" % (pi, panel.get("name")))
                continue
            for ri, run in enumerate(runs):
                where = "panel %d (%s) run %d" % (pi, panel.get("name"), ri)
                if not isinstance(run, dict):
                    err("%s is not an object" % where)
                    continue
                for key, want in REQUIRED_RUN.items():
                    if key not in run:
                        err("%s missing field %r" % (where, key))
                    elif not isinstance(run[key], want) or (
                        want is int and isinstance(run[key], bool)
                    ) or (want is bool and not isinstance(run[key], bool)):
                        err("%s field %r has type %s"
                            % (where, key, type(run[key]).__name__))
                if run.get("wall_millis", 0) < 0:
                    err("%s has negative wall_millis" % where)
                reason = run.get("stop_reason")
                if isinstance(reason, str) and reason not in STOP_REASONS:
                    err("%s has unknown stop_reason %r" % (where, reason))
                if run.get("found") is True and reason not in (None, "found"):
                    err("%s found=true but stop_reason is %r"
                        % (where, reason))
                if run.get("deadline_millis", 0) < 0:
                    err("%s has negative deadline_millis" % where)
                cw = run.get("checkpoint_writes")
                if isinstance(cw, int) and not isinstance(cw, bool) and cw < 0:
                    err("%s has negative checkpoint_writes" % where)
                for key, want in TRACE_RUN_FIELDS.items():
                    if key not in run:
                        continue
                    value = run[key]
                    if not isinstance(value, want) or (
                        want is int and isinstance(value, bool)
                    ):
                        err("%s field %r has type %s"
                            % (where, key, type(value).__name__))
                    elif want is int and value < 0:
                        err("%s has negative %s" % (where, key))
                    elif want is str and not value:
                        err("%s has empty %s" % (where, key))
                for key in SUPERVISOR_RUN_FIELDS:
                    if key not in run:
                        continue
                    value = run[key]
                    if not isinstance(value, int) or isinstance(value, bool):
                        err("%s field %r has type %s"
                            % (where, key, type(value).__name__))
                    elif value < 0:
                        err("%s has negative %s" % (where, key))
                executor = run.get("executor")
                if executor is not None and executor not in EXECUTOR_KINDS:
                    err("%s has unknown executor %r, want one of %s"
                        % (where, executor, sorted(EXECUTOR_KINDS)))
                is_apply = doc.get("harness") == "apply"
                if is_apply and executor is None:
                    err("%s missing field 'executor'" % where)
                for key, want in APPLY_RUN_FIELDS.items():
                    if key not in run:
                        if is_apply:
                            err("%s missing apply field %r" % (where, key))
                        continue
                    value = run[key]
                    if not isinstance(value, want) or isinstance(value, bool):
                        err("%s field %r has type %s"
                            % (where, key, type(value).__name__))
                    elif key == "case" and not value:
                        err("%s has empty case" % where)
                    elif key != "case" and value <= 0:
                        err("%s has non-positive %s" % (where, key))
                for key in APPLY_OPTIONAL_NUMBERS:
                    if key in run:
                        value = run[key]
                        if not isinstance(value, (int, float)) or isinstance(
                            value, bool
                        ) or value <= 0:
                            err("%s field %r is %r, want a positive number"
                                % (where, key, value))
                for key in APPLY_OPTIONAL_COUNTS:
                    if key in run:
                        value = run[key]
                        if not isinstance(value, int) or isinstance(
                            value, bool
                        ) or value < 0:
                            err("%s field %r is %r, want a non-negative int"
                                % (where, key, value))
                for key in MICRO_NS_FIELDS:
                    if key in run:
                        value = run[key]
                        if not isinstance(value, (int, float)) or isinstance(
                            value, bool
                        ):
                            err("%s field %r has type %s"
                                % (where, key, type(value).__name__))
                        elif value < 0:
                            err("%s has negative %s" % (where, key))
                    elif doc.get("harness") == "micro":
                        err("%s missing micro field %r" % (where, key))
                if doc.get("harness") == "serve":
                    if panel.get("name") == "jobs":
                        for key, want in SERVE_JOBS_RUN_FIELDS.items():
                            if key not in run:
                                err("%s missing serve field %r"
                                    % (where, key))
                                continue
                            value = run[key]
                            if not isinstance(value, want) or (
                                want is not bool and isinstance(value, bool)
                            ):
                                err("%s field %r has type %s"
                                    % (where, key, type(value).__name__))
                            elif want is str and not value:
                                err("%s has empty %s" % (where, key))
                            elif want != bool and not isinstance(
                                value, (str, bool)
                            ) and value < 0:
                                err("%s has negative %s" % (where, key))
                    elif panel.get("name") == "summary":
                        for key in SERVE_SUMMARY_COUNTS:
                            value = run.get(key)
                            if not isinstance(value, int) or isinstance(
                                value, bool
                            ) or value < 0:
                                err("%s serve field %r is %r, want a "
                                    "non-negative int" % (where, key, value))
                        for key in SERVE_SUMMARY_NUMBERS:
                            value = run.get(key)
                            if not isinstance(value, (int, float)) or (
                                isinstance(value, bool)
                            ) or value < 0:
                                err("%s serve field %r is %r, want a "
                                    "non-negative number"
                                    % (where, key, value))
                metrics = run.get("metrics")
                if metrics is not None:
                    if not isinstance(metrics, dict):
                        err("%s metrics is not an object" % where)
                    elif not isinstance(metrics.get("counters"), dict):
                        err("%s metrics has no counters object" % where)
                    else:
                        counters = metrics["counters"]
                        for name, value in counters.items():
                            if not name.startswith(
                                SUBSTRATE_COUNTER_PREFIXES
                            ):
                                continue
                            if not isinstance(value, int) or isinstance(
                                value, bool
                            ) or value < 0:
                                err("%s counter %r is %r, want a "
                                    "non-negative int" % (where, name, value))
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    all_errors = []
    for path in argv[1:]:
        all_errors.extend(check(path))
    for e in all_errors:
        print(e, file=sys.stderr)
    if not all_errors:
        for path in argv[1:]:
            print("%s: OK" % path)
    return 1 if all_errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
