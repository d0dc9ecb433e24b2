#!/usr/bin/env python3
"""Builds eved and the evebench program from this checkout, then runs one
benchmark workload. Run from the root of the repository:

    python3 evebench/run.py --workload commit_churn --seed 1 --seconds 10 --trace 0
    python3 evebench/run.py --smoke       # every workload, tiny, both modes
    python3 evebench/run.py --self-test   # statistics unit tests

The last line of stdout is the result JSON; build output goes to stderr.
The build directory is $CARGO_TARGET_DIR, or .bench_build when unset.
Scratch files go under .bench_run/ and are removed after each run, except
the spans of the last traced run of each workload.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["commit_churn", "whatif_departure", "replicated_commit"]
RUN_TIMEOUT_S = 170
# Files the benchmark builds from; without them there is nothing to run.
REQUIRED = ["CMakeLists.txt", "src/CMakeLists.txt", "tools/eved.cc",
            "evebench/CMakeLists.txt"]


def fail(message):
    print("evebench: " + message, file=sys.stderr)
    sys.exit(2)


def source_id(root):
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                                 cwd=root, capture_output=True, text=True,
                                 check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha1()
    for top in ["CMakeLists.txt", "src", "tools"]:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "src-" + digest.hexdigest()[:12]


def build(root, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "evebench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "evebench",
                  "eved", "-j", jobs])
    for step in steps:
        code = subprocess.run(step, cwd=root, stdout=sys.stderr,
                              stderr=sys.stderr).returncode
        if code != 0:
            fail("build step failed: " + " ".join(step))
    return (os.path.join(build_dir, "evebench"),
            os.path.join(build_dir, "eve", "tools", "eved"))


def run_program(argv, root):
    """Runs evebench in its own process group; on timeout the whole group
    (evebench and every eved it started) is killed and reaped."""
    sys.stdout.flush()
    process = subprocess.Popen(argv, cwd=root, start_new_session=True)
    try:
        return process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        print("evebench: run timed out after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise


def run_one(root, binaries, workload, seed, seconds, trace, smoke=False):
    program, eved = binaries
    scratch = os.path.join(root, ".bench_run")
    work_dir = os.path.join(scratch, "run-%d-%s" % (os.getpid(), workload))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    argv = [program, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--eved", eved, "--work-dir", work_dir,
            "--commit", source_id(root)]
    if smoke:
        argv.append("--smoke")
    try:
        code = run_program(argv, root)
        spans = os.path.join(work_dir, "spans.tsv")
        if os.path.exists(spans):
            shutil.copyfile(spans, os.path.join(scratch,
                                                "spans_%s.tsv" % workload))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return code


def interrupted(signum, frame):
    raise KeyboardInterrupt


def main():
    # A SIGTERM to this script still stops evebench and its eved processes
    # (run_program kills their process group on KeyboardInterrupt).
    signal.signal(signal.SIGTERM, interrupted)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    root = os.getcwd()
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(root, p))]
    if missing:
        fail("run from the repository root; missing " + ", ".join(missing))
    if not (args.smoke or args.self_test or args.workload):
        fail("--workload, --smoke or --self-test is required")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binaries = build(root, os.path.join(root, build_dir))

    if args.self_test or args.smoke:
        code = run_program([binaries[0], "--self-test"], root)
        if code != 0 or args.self_test:
            sys.exit(code)
        failed = []
        for workload in WORKLOADS:
            for trace in (0, 1):
                if run_one(root, binaries, workload, args.seed, 1, trace,
                           smoke=True) != 0:
                    failed.append("%s --trace %d" % (workload, trace))
        print("smoke: " + ("all passed" if not failed
                           else "FAILED: " + ", ".join(failed)))
        sys.exit(1 if failed else 0)

    sys.exit(run_one(root, binaries, args.workload, args.seed, args.seconds,
                     args.trace))


if __name__ == "__main__":
    main()
