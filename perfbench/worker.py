"""One benchmark process: build a workload from its seed, warm up, time it, check it.

run.py starts this script and measures set-up time from outside: the worker
prints ``READY`` once imports, input generation and warm-up are done, then
runs the timed phase and prints one JSON line with its results.  Closed loop,
one client, no threads: each op starts when the previous one has returned.

The op list is run in passes until ``--seconds`` have elapsed (at least one
full pass).  On a shared virtual machine the speed swings by about 1.4x in
states that last from under a second to many seconds, so timings follow
timeit's convention and take minima.  ``ops_per_s`` is ops per pass over the
fastest full pass: each pass pays its own garbage collection and allocation,
so they stay in the figure.  An op's latency is the minimum over its passes,
which leaves out the collector pauses and cache misses of its slower passes;
``op_p50_us`` and ``op_tail_us`` are percentiles of those minima over the
fixed op list, so both commits report the same percentile.  Each vCPU
switches state on its own, so successive passes run pinned to successive
CPUs.  With ``--pauses K`` the timed phase stops K times, at even steps, for
run.py to time a set-up; paused time is not timed.  Results of the first
pass are checked against the oracle, outside the timed region.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from array import array
from time import perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
RING_SAMPLES = 250_000  # latency samples kept; older passes are overwritten
MAX_SPANS = 200_000
PROCESS_CHECKS = 12  # cli_script ops also run as real processes
STARTUP_RUNS = 5  # bare `cofinj --eval id` processes for cli.startup_s


def _per_op_minima(lat, n, ring, full, cut):
    out = []
    for i in range(n):
        runs = full + (1 if i < cut else 0)
        out.append(min(lat[(k % ring) * n + i] for k in range(max(0, runs - ring), runs)))
    return out


class Failures:
    def __init__(self):
        self.count = 0
        self.first = None

    def add(self, op_index, op, message):
        self.count += 1
        if self.first is None:
            self.first = {"op": op_index, "kind": op.kind, "size": op.size, "error": message[:500]}


def _check(workloads, op, result):
    try:
        return workloads.run_check(op, result)
    except Exception as e:  # a check that crashes is a failed check, reported with its cause
        return f"check raised {type(e).__name__}: {e}"


def _call(i, op):
    return op.fn(*op.args)


def _run_pass(ops, fails, workloads, call=_call, lat=None, slot=0, deadline=None, check=False):
    """One pass over the ops; returns (ops run, check time in ns)."""
    clock = perf_counter_ns
    check_ns = 0
    for i, op in enumerate(ops):
        t0 = clock()
        try:
            result = call(i, op)
            err = None
        except Exception as e:
            err = f"{type(e).__name__}: {e}"
        t1 = clock()
        if lat is not None:
            lat[slot + i] = t1 - t0
        if err is not None:
            fails.add(i, op, err)
        elif check:
            msg = _check(workloads, op, result)
            check_ns += clock() - t1
            if msg:
                fails.add(i, op, msg)
        result = None
        if deadline is not None and t1 >= deadline:
            return i + 1, check_ns
    return len(ops), check_ns


def _pin(cpus):
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:  # where pinning is not allowed, run unpinned
        pass


def _pause():
    """Hand the machine to run.py for one set-up run; returns the ns spent paused."""
    t0 = perf_counter_ns()
    print("PAUSE", flush=True)
    if not sys.stdin.readline():
        sys.exit("run.py went away during a pause")
    return perf_counter_ns() - t0


def timed(ops, seconds, workloads, lat, ring, fails, pauses=0):
    n = len(ops)
    gc.collect()
    start = perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    step = int(seconds * 1e9 / (pauses + 1))
    next_pause = start + step
    attempted, check_ns, paused_ns, full, cut = 0, 0, 0, 0, 0
    pass_ns = []
    cpus = sorted(os.sched_getaffinity(0))
    while True:
        _pin({cpus[full % len(cpus)]})
        t0 = perf_counter_ns()
        done, c = _run_pass(ops, fails, workloads, lat=lat, slot=(full % ring) * n,
                            deadline=deadline if full > 0 else None, check=full == 0)
        t1 = perf_counter_ns()
        attempted += done
        check_ns += c
        if done < n:
            cut = done
            break
        pass_ns.append(t1 - t0 - c)
        full += 1
        if t1 >= deadline:
            break
        if pauses and t1 >= next_pause:
            pauses -= 1
            p = _pause()
            paused_ns += p
            deadline += p
            next_pause += step + p
    wall_s = (perf_counter_ns() - start - check_ns - paused_ns) / 1e9
    _pin(cpus)
    lats = sorted(_per_op_minima(lat, n, ring, full, cut))
    idx, pct = workloads.tail_rank(n)
    # The first pass also ran the oracle checks between its ops, which disturbs the caches.
    best_pass_s = min(pass_ns[1:] or pass_ns) / 1e9
    metrics = {
        "ops_per_s": n / best_pass_s,
        "op_p50_us": statistics.median(lats) / 1e3,
        "op_tail_us": lats[idx] / 1e3,
    }
    info = {"passes": full + cut / n, "tail_percentile": pct, "tail_samples": n,
            "samples_per_op_min": min(full, ring), "timed_wall_s": wall_s,
            "ops_per_s_overall": attempted / wall_s}
    return attempted, metrics, info


def traced(ops, seconds, workloads, fails):
    """Alternate untraced and traced passes; returns (ops run, tracer, totals for layer_metrics)."""
    import tracer as tracer_mod
    from cofinj import core

    t = tracer_mod.Tracer(MAX_SPANS)
    modules = tracer_mod.cofinj_modules()
    clock = perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    plain_ns = traced_ns = passes = attempted = 0
    hits = misses = 0
    while passes == 0 or clock() < deadline:
        t0 = clock()
        done, check_ns = _run_pass(ops, fails, workloads, check=passes == 0)
        plain_ns += clock() - t0 - check_ns
        attempted += done
        base = passes * len(ops)
        info0 = core._collapse_cached.cache_info()
        t.install(modules)
        t0 = clock()
        try:
            done, _ = _run_pass(ops, fails, workloads, lambda i, op: t.run_op(base + i, op.fn, op.args))
        finally:
            traced_ns += clock() - t0
            t.uninstall()
        attempted += done
        info1 = core._collapse_cached.cache_info()
        hits += info1.hits - info0.hits
        misses += info1.misses - info0.misses
        passes += 1
    return attempted, t, (passes, traced_ns, plain_ns, hits, misses)


def as_processes(ops, fails, workloads, runner):
    """Run CLI ops as real cofinj processes, outside any timing; checks each and returns the wall times."""
    walls = []
    for i, op in enumerate(ops):
        t0 = perf_counter_ns()
        result = runner.process(*op.args)
        walls.append((perf_counter_ns() - t0) / 1e9)
        msg = _check(workloads, op, result)
        if msg:
            fails.add(i, op, f"as a process: {msg}")
    return walls


def layer_metrics(t, passes, traced_ns, plain_ns, hits, misses, extra):
    table, counts = t.table(), t.counts
    wall_s = traced_ns / passes / 1e9

    def calls(g):
        return table.get(g, {}).get("calls", 0) / passes

    def self_s(g):
        return table.get(g, {}).get("self_s", 0.0) / passes

    def incl_s(g):
        return table.get(g, {}).get("incl_s", 0.0) / passes

    def count(name):
        return counts.get(name, 0) / passes

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "kernel.calls": calls("_kernel"),
        "kernel.self_s": self_s("_kernel"),
        "kernel.share": ratio(self_s("_kernel"), wall_s),
        "kernel.segments_in": count("_kernel.segments_in"),
        "kernel.wide_int_calls": count("_kernel.wide_int_calls"),
        "kernel.long_calls": count("_kernel.long_calls"),
        "core.construct.calls": calls("core.construct"),
        "core.construct.self_s": self_s("core.construct"),
        "core.construct.share": ratio(self_s("core.construct"), wall_s),
        "core.normalize.calls": calls("core.normalize"),
        "core.parse.self_s": self_s("core.parse"),
        "core.collapse.hit_ratio": ratio(hits, hits + misses),
        "core.gaps.calls": calls("core.gaps"),
        "core.gaps.self_s": self_s("core.gaps"),
        "core.gaps.points": count("core.gaps.points"),
        "almost.compose.calls": calls("almost.compose"),
        "almost.compose.self_s": self_s("almost.compose"),
        "almost.compose.window_points": count("almost.compose.window_points"),
        "almost.make.calls": calls("almost.make"),
        "almost.make.self_s": self_s("almost.make"),
        "almost.convert.calls": calls("almost.convert"),
        "almost.convert.self_s": self_s("almost.convert"),
        "almost.min_exc.self_s": self_s("almost.min_exc"),
        "green.solve.calls": calls("green.solve"),
        "green.solve.self_s": self_s("green.solve"),
        "green.solve.solutions": count("green.solve.solutions"),
        "green.solve.us_per_solution": ratio(incl_s("green.solve") * 1e6, count("green.solve.solutions")),
        "green.relations.self_s": self_s("green.relations"),
        "green.factorize.self_s": self_s("green.factorize"),
        "congruence.calls": calls("congruence"),
        "congruence.self_s": self_s("congruence"),
        "bicyclic.eval.calls": calls("bicyclic.eval"),
        "bicyclic.eval.self_s": self_s("bicyclic.eval"),
        "topology.product_cover.self_s": self_s("topology.product_cover"),
        "topology.inverse_cover.self_s": self_s("topology.inverse_cover"),
        "topology.separate.self_s": self_s("topology.separate"),
        "topology.sample.calls": calls("topology.sample"),
        "topology.sample.self_s": self_s("topology.sample"),
        "topology.member.calls": calls("topology.member"),
        "topology.member.self_s": self_s("topology.member"),
        "topology.audit.samples": count("topology.audit.samples"),
        "topology.audit.pass_ratio": ratio(count("topology.audit.passed"), calls("topology.audit")),
        "exprlang.tokens": count("exprlang.tokens"),
        "exprlang.parse.self_s": self_s("exprlang.parse") + self_s("exprlang.tokenize"),
        "exprlang.parse.tokens_per_s": ratio(count("exprlang.tokens"), incl_s("exprlang.parse")),
        "exprlang.eval.self_s": self_s("exprlang.eval"),
        "exprlang.format.self_s": self_s("exprlang.format"),
        "cli.startup_s": extra["cli.startup_s"],
        "cli.process_s": extra["cli.process_s"],
        "cli.statements": calls("cli.render"),
        "cli.render.self_s": self_s("cli.render"),
        "trace.overhead_ratio": traced_ns / plain_ns,
        "trace.layer_share": ratio(sum(v["self_s"] for g, v in table.items() if g != "bench.op") / passes,
                                   incl_s("bench.op")),
    }
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--pauses", type=int, default=0, help="times to pause the timed phase for a set-up run")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import cofinj
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}")
    workdir = os.path.join(OUT, f"work_{os.getpid()}")
    try:
        ops = workloads.build(args.workload, args.seed, args.smoke, workdir)
        # Warm-up: the smallest op of every kind, once, so lazy imports and caches are in place.
        smallest = {}
        for op in ops:
            if op.kind not in smallest or op.size < smallest[op.kind].size:
                smallest[op.kind] = op
        for op in smallest.values():
            try:
                op.fn(*op.args)
            except Exception:  # counted as a failure when the timed phase runs it
                pass
        ring = max(4, RING_SAMPLES // len(ops))
        lat = array("q", bytes(8 * len(ops) * ring))
        print("READY", flush=True)
        if args.setup_only:
            return 0

        fails = Failures()
        if args.trace:
            attempted, t, totals = traced(ops, args.seconds, workloads, fails)
            info = {}
        else:
            attempted, metrics, info = timed(ops, args.seconds, workloads, lat, ring, fails, args.pauses)
            metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        extra = {"cli.startup_s": 0.0, "cli.process_s": 0.0}
        if args.workload == "cli_script":
            # The timed ops call cli.main in process; the same ops, and a bare
            # start-up, also run as real processes, which must give the same output.
            runner = workloads.CliRunner(ROOT)
            k = min(PROCESS_CHECKS, len(ops))
            real = ops[:k] + [workloads.startup_op()] * (STARTUP_RUNS if args.trace else 0)
            walls = as_processes(real, fails, workloads, runner)
            attempted += len(real)
            extra["cli.process_s"] = statistics.median(walls[:k])
            if args.trace:
                extra["cli.startup_s"] = statistics.median(walls[k:])
        if args.trace:
            metrics = layer_metrics(t, *totals, extra)
        info.update({
            "workload": args.workload, "seed": args.seed, "kernel": cofinj.kernel_name(),
            "python": platform.python_version(), "nproc": os.cpu_count(), "ops_per_pass": len(ops),
            "op_kinds": workloads.describe(ops),
        })
        if args.trace:
            path = os.path.join(OUT, f"trace_{args.workload}_{args.seed}.json")
            t.dump(path, {"info": info, "metrics": metrics})
            info["trace_file"] = os.path.relpath(path, ROOT)
        print(json.dumps({"attempted": attempted, "failed": fails.count, "first_failure": fails.first,
                          "metrics": metrics, "info": info}), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
