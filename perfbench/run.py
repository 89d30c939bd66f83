#!/usr/bin/env python3
"""Builds and runs the T-DFS wall-clock benchmark (see BENCHMARK.json).

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run. Prints the host/build stamp, every metric by name with its
      unit, and as the last line one JSON object with the keys correct,
      attempted, failed and metrics. --trace 0 reports the end-to-end
      metrics, --trace 1 the per-layer ones.
  python3 perfbench/run.py --report [--seed N] [--seconds S]
      Every workload, untraced and traced: every metric of the benchmark.
  python3 perfbench/run.py --self-test
      Recounts the stored expected counts with the serial reference engine
      and shows the correctness gate rejecting a wrong count.
  python3 perfbench/run.py --write-expected
      Regenerates perfbench/expected_counts.txt.

The driver is built from ../src with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). Spans of traced runs are written there too.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected_counts.txt")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_logged(cmd, log, timeout):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout).returncode


def build():
    """Configures and builds the driver; returns its path or exits 1."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    steps = []
    if not any(os.path.exists(os.path.join(bdir, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", bdir, "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if run_logged(cmd, log, BUILD_TIMEOUT_S) != 0:
            with open(log) as f:
                sys.stderr.write(f.read()[-4000:])
            sys.stderr.write("perfbench: build failed (log: %s)\n" % log)
            sys.exit(1)
    return os.path.join(bdir, "perfbench_driver")


def git_commit():
    # Only ask git inside a git checkout, so nothing outside it is read.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             timeout=10).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True,
                               timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return (sha or "unknown") + ("-dirty" if dirty else "")


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_driver(cmd, timeout):
    """Runs the driver to completion (killing it on timeout); returns
    (exit code, stdout lines)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out.splitlines()


def check_result(line, spec, trace):
    """The result line parses and carries exactly the mode's metrics."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys %s" % sorted(result))
    want = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if [m["name"] for m in want] != list(got):
        raise ValueError("metrics %s, BENCHMARK.json lists %s" %
                         (list(got), [m["name"] for m in want]))
    for m in want:
        if got[m["name"]]["unit"] != m["unit"]:
            raise ValueError("%s unit %s, BENCHMARK.json says %s" %
                             (m["name"], got[m["name"]]["unit"], m["unit"]))
    return result


def run_one(driver, spec, workload, seed, seconds, trace):
    """One run; prints the driver's report. Returns the parsed result, or
    None after printing why to stderr."""
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--expected", EXPECTED, "--commit", git_commit()]
    if trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans, "%s-seed%d.jsonl" % (workload, seed))]
    code, lines = run_driver(cmd, RUN_TIMEOUT_S)
    if code != 0 or not lines:
        sys.stderr.write("\n".join(lines + [""]))
        sys.stderr.write("perfbench: driver exited with %d\n" % code)
        return None
    for line in lines[:-1]:
        print(line)
    try:
        result = check_result(lines[-1], spec, trace)
    except (ValueError, KeyError, json.JSONDecodeError) as e:
        sys.stderr.write("perfbench: bad result line: %s\n" % e)
        return None
    sys.stdout.flush()
    return result, lines[-1]


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args()

    spec = benchmark_spec()
    driver = build()
    if args.self_test or args.write_expected:
        flag = (["--self-test", "--expected", EXPECTED] if args.self_test
                else ["--write-expected", EXPECTED])
        return subprocess.run([driver] + flag).returncode

    seconds = args.seconds or spec["run_seconds"]
    if args.report:
        ok = True
        for w in spec["workloads"]:
            for trace in (0, 1):
                print("\n== %s, trace %d ==" % (w["name"], trace))
                got = run_one(driver, spec, w["name"], args.seed, seconds,
                              trace)
                ok = ok and got is not None and got[0]["correct"]
        print("\nall runs correct" if ok else "\nSOME RUNS FAILED")
        return 0 if ok else 1

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error("--workload must be one of %s" % ", ".join(names))
    got = run_one(driver, spec, args.workload, args.seed, seconds, args.trace)
    if got is None:
        return 1
    print(got[1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
