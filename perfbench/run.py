"""perfbench: the cofinj benchmark, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mono_arith --seed 1 --seconds 10 --trace 0

Workloads: mono_arith, almost_arith, search_wide, cli_script (see
perfbench/README.md).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones from a traced run.  The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}; the metric names
and units come from BENCHMARK.json at the checkout root.

Set-up time is measured here, from outside: each worker process prints READY
when imports, input generation and warm-up are done.  The measuring worker
pauses between passes at even steps of its timed phase; during each pause one
set-up-only worker runs, so the set-ups sample the machine across the whole
run.  With the measuring worker's own set-up that makes SETUP_RUNS set-ups
(topped up after the timed phase if passes were too long to pause that
often).  setup_s is their median.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 13
GRACE_S = 150  # budget beyond --seconds for set-up, checks and the traced extras


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def start_worker(argv, stdin=subprocess.DEVNULL):
    """Start a worker; returns (process, seconds from start to READY)."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                            stdin=stdin, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        fail(f"worker did not get ready (exit code {proc.returncode})")
    return proc, setup


def setup_once(argv):
    proc, setup = start_worker(argv + ["--setup-only"])
    try:
        proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return setup


def _timeout(signum, frame):
    raise TimeoutError


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    ap.add_argument("--smoke", action="store_true", help="tiny op lists and a single set-up, for the smoke test")
    args = ap.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "cofinj", "__init__.py")):
        fail("no cofinj sources under src/cofinj; run from the root of a checkout")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json is missing at the checkout root")
    with open(spec_path) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    wargv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]
    if args.smoke:
        wargv.append("--smoke")
    pauses = 0 if (args.trace or args.smoke) else SETUP_RUNS - 1

    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(int(args.seconds) + GRACE_S)
    proc = None
    try:
        proc, s = start_worker(wargv + ["--pauses", str(pauses)], stdin=subprocess.PIPE)
        setups = [s]
        while (line := proc.stdout.readline()).strip() == "PAUSE":
            setups.append(setup_once(wargv))
            proc.stdin.write("GO\n")
            proc.stdin.flush()
        proc.wait()
        if proc.returncode != 0 or not line.strip():
            fail(f"worker failed with exit code {proc.returncode}")
        while len(setups) < pauses + 1:
            setups.append(setup_once(wargv))
    except TimeoutError:
        fail("worker ran out of time")
    finally:
        signal.alarm(0)
        if proc is not None:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    result = json.loads(line)

    values = dict(result["metrics"])
    values["setup_s"] = statistics.median(setups)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"worker did not report {missing}")
    info = result["info"]
    attempted, failed = result["attempted"], result["failed"]

    print(f"perfbench {args.workload} seed={args.seed} kernel={info['kernel']} python={info['python']} "
          f"nproc={info['nproc']} trace={args.trace} ops_per_pass={info['ops_per_pass']}")
    for m in wanted:
        print(f"  {m['name']:32s} {values[m['name']]:.6g} {m['unit']}")
    print(f"  {'fail_ratio':32s} {failed / max(attempted, 1):.6g} ratio ({failed} failed of {attempted} attempted)")
    if args.trace:
        print(f"  trace written to {info['trace_file']}")
    else:
        print(f"  op_tail_us is the p{info['tail_percentile']:.4g} of {info['tail_samples']} per-op minima; "
              f"{info['passes']:.2f} passes, at least {info['samples_per_op_min']} samples per op; "
              f"setup_s is the median of {len(setups)} set-ups (min {min(setups):.4g} s); "
              f"{info['ops_per_s_overall']:.6g} ops/s over the whole timed phase")
    if result["first_failure"]:
        print(f"  first failing op: {json.dumps(result['first_failure'])}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
