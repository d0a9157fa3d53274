#!/usr/bin/env python3
"""Builds and runs the lodviz benchmark (lodbench).

Run from the repository root:

  python3 lodbench/run.py --workload serve-mem-views --seed 1 --seconds 15 --trace 0
  python3 lodbench/run.py --seed 1 --seconds 15     # every workload in turn
  python3 lodbench/run.py --selftest

The first call configures and builds lodbench/ (and the lodviz libraries it
links) in $CARGO_TARGET_DIR/lodbench, default .bench_build/lodbench; later
calls rebuild incrementally. Each run writes its full result, stamped with
host and build metadata, to .bench_build/lodbench-results/ (and, traced, the
span file next to it), and prints the metrics with the JSON summary as the
last line of standard output. Build output goes to standard error.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-mem-views", "serve-disk-lookups", "explore-session")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"lodbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_root():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no lodviz sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = build_root() / "lodbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", target,
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return build_dir / target


def git_sha():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    # A checkout that is not itself a git work tree may sit inside another.
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def source_digest():
    """sha256 over the lodviz sources, to identify the code where git can't."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_summary(line, trace):
    """The summary must name exactly the metrics BENCHMARK.json declares."""
    summary = json.loads(line)
    if set(summary) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected summary keys: {sorted(summary)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in summary["metrics"].items()}
    if got != declared:
        differing = sorted(set(got) ^ set(declared))
        fail(f"metrics differ from BENCHMARK.json: {differing}")


def run(args):
    binary = build("lodbench")
    results = build_root() / "lodbench-results"
    data = build_root() / "lodbench-data"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", str(data), "--result", str(results / f"{stem}.json"),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.trace:
        cmd += ["--spans", str(results / f"{stem}.spans.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(data, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        fail(f"{args.workload} exited with code {proc.returncode}")
    check_summary(lines[-1], args.trace)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


def selftest():
    binary = build("lodbench_selftest")
    scratch = build_root() / "lodbench-selftest"
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TEST_TMPDIR=str(scratch))
    sys.exit(subprocess.run([str(binary)], cwd=ROOT, env=env).returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.selftest:
        selftest()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run(argparse.Namespace(**{**vars(args), "workload": workload}))


if __name__ == "__main__":
    main()
