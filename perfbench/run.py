#!/usr/bin/env python3
"""Builds and runs the request benchmark of the Fig. 1 stack.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles the library
from src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that is unset; later calls only re-check the build. Every run first runs the
self-test of the benchmark's correctness checks. The benchmark's last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; a fuller copy goes to .bench_out/, and a traced run also
writes its spans there.
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("steady_population", "churn_waves", "fig1_domains", "large_substrate")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; fails on error."""
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"command failed ({done.returncode}): {' '.join(map(str, cmd))}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", str(build_dir), "-j", jobs,
               "--target", "perfbench", "perfbench_selftest"])
    return build_dir


def self_test(build_dir, verbose):
    done = subprocess.run([str(build_dir / "perfbench_selftest")],
                          capture_output=True, text=True, timeout=60)
    if verbose or done.returncode != 0:
        sys.stderr.write(done.stdout)
    if done.returncode != 0:
        fail("the self-test of the correctness checks failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="only build and run the self-test of the checks")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build_dir = build()
    self_test(build_dir, verbose=args.self_test)
    if args.self_test:
        return 0

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(build_dir / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result-file", str(out_dir / f"{stem}.json")]
    if args.trace:
        cmd += ["--trace-file", str(out_dir / f"{stem}.spans.jsonl")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed no result")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
