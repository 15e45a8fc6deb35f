#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
benchmark (a Release build of ../src plus perfbench/src) under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
rebuild what changed. The last line of standard output is the result
JSON printed by the benchmark binary. --self-test checks that a
corrupted reference is caught and that DELIRIUM_* overrides are refused.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("corpus_dispatch", "table1_compile", "retina_fig1")
CHILD_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure (once) and build the benchmark; returns the binary path."""
    out = build_dir()
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(out, "Makefile")):  # written by a successful configure
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, **quiet)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                   check=True, **quiet)
    return os.path.join(out, "perfbench")


def git_revision():
    """The checkout's revision, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as f:
                return f.read().strip()[:12]
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def run_binary(binary, args, env=None):
    """Runs the benchmark binary; returns (exit code, stdout text)."""
    proc = subprocess.Popen([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True, env=env)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"benchmark binary exceeded {CHILD_TIMEOUT_S} s and was killed")
        return 1, ""
    return proc.returncode, stdout


def benchmark_args(workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--revision", git_revision()]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out", os.path.join(traces, f"{workload}-seed{seed}.json")]
    return args


def self_test(binary):
    ok = True
    for workload in WORKLOADS:
        code, out = run_binary(binary, benchmark_args(workload, 7, 0.2, 0) +
                               ["--corrupt-reference"])
        lines = out.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        caught = code != 0 and result.get("correct") is False and result.get("failed", 0) > 0
        log(f"self-test {workload}: corrupted reference "
            f"{'caught' if caught else 'NOT caught'} (exit {code}, "
            f"failed {result.get('failed')} of {result.get('attempted')})")
        ok = ok and caught
    env = dict(os.environ, DELIRIUM_COST_HINTS="0")
    code, out = run_binary(binary, benchmark_args(WORKLOADS[0], 7, 0.2, 0), env=env)
    refused = code != 0 and not out.strip().endswith("}")
    log(f"self-test: DELIRIUM_* override {'refused' if refused else 'NOT refused'} (exit {code})")
    return ok and refused


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    if args.self_test:
        return 0 if self_test(binary) else 1
    code, out = run_binary(binary, benchmark_args(args.workload, args.seed, args.seconds,
                                                  args.trace))
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
