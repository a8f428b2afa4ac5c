#!/usr/bin/env python3
"""Build and run the vuv end-to-end benchmark (see README.md here).

    python3 vuvbench/run.py --workload table_matrix --seed 1 --seconds 25 --trace 0
    python3 vuvbench/run.py --workload all        # every workload, one table
    python3 vuvbench/run.py --selftest            # prove each check fires

Run from the root of a checkout. The harness is built from source into
.bench_build/vuvbench (or $CARGO_TARGET_DIR/vuvbench) on first use; build
output goes to stderr, so the last line of stdout is the result JSON.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["table_matrix", "mem_dse", "serve_mix", "oracle_fuzz"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "vuvbench")


def build():
    """Configure (once) and build the harness; returns its path."""
    out = build_dir()
    exe = os.path.join(out, "vuvbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(exe):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "vuvbench"], stdout=sys.stderr, check=True)
    return exe


def harness_args(exe, workload, seed, seconds, trace, inject=None):
    args = [exe, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--fingerprints", os.path.join(HERE, "fingerprints.json")]
    if trace:
        args += ["--trace-out", os.path.join(
            os.path.dirname(build_dir()), "traces",
            f"{workload}-seed{seed}.json")]
    if inject:
        args += ["--inject", inject]
    return args


def run_one(args):
    """Runs the harness; returns (exit code, result dict or None)."""
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def run_all(exe, seed, seconds):
    """Every workload in its own process, end-to-end then per-layer."""
    status = 0
    for trace in (0, 1):
        rows = []
        for w in WORKLOADS:
            rc, result = run_one(harness_args(exe, w, seed, seconds, trace))
            status |= rc
            rows.append((w, result))
        names = []
        for _, r in rows:
            for n in (r or {}).get("metrics", {}):
                if n not in names:
                    names.append(n)
        print(("per-layer" if trace else "end-to-end")
              + f" metrics, seed {seed}, {seconds} s per workload")
        print(f"  {'metric':32}" + "".join(f"{w:>16}" for w, _ in rows))
        for n in names + ["failed_ratio"]:
            cells, unit = [], ""
            for _, r in rows:
                if r is None:
                    cells.append("ERROR")
                elif n == "failed_ratio":
                    cells.append(f"{r['failed'] / max(r['attempted'], 1):.4g}")
                    unit = "ratio"
                else:
                    m = r["metrics"][n]
                    cells.append(f"{m['value']:.6g}")
                    unit = m["unit"]
            print(f"  {n + ' [' + unit + ']':32}"
                  + "".join(f"{c:>16}" for c in cells))
    return status


# Each injected fault and the workload it is shown on; every one must make
# the run report failed > 0 and exit nonzero.
SELFTESTS = [
    ("fingerprint", "table_matrix", 0),
    ("corrupt", "table_matrix", 1),
    ("shed", "serve_mix", 0),
]


def selftest(exe):
    ok = True
    for inject, workload, trace in SELFTESTS:
        rc, result = run_one(harness_args(exe, workload, 1, 1, trace, inject))
        fired = result is not None and result["failed"] > 0 and rc != 0
        print(f"selftest {inject:12} on {workload:13}: "
              + (f"fired ({result['failed']} of {result['attempted']} failed)"
                 if fired else "DID NOT FIRE"))
        ok = ok and fired
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload or --selftest is required")
    try:
        exe = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"vuvbench: build failed: {e}", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest(exe)
    if args.workload == "all":
        return run_all(exe, args.seed, args.seconds)
    # One workload: the harness's own output, last line the result JSON.
    sys.stdout.flush()
    return subprocess.run(harness_args(exe, args.workload, args.seed,
                                       args.seconds, args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
