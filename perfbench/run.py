#!/usr/bin/env python3
"""Build the DL predictor benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: sweep_solve, sweep_calibrate, serve_mixed, resume_warm (see
perfbench/README.md).  The first run configures and builds the library,
dl_serve and the benchmark binary dlm_perfbench (Release) into $CARGO_TARGET_DIR, or
.bench_build when unset; later runs rebuild only what changed.  Build
output goes to stderr, so the last line of stdout is the binary's JSON
result.  Every process started here is stopped before this script exits.
"""

import hashlib
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("sweep_solve", "sweep_calibrate", "serve_mixed", "resume_warm")
RUN_TIMEOUT_S = 178
SOURCE_ROOTS = ("CMakeLists.txt", "src", "tools", "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def parse_args(argv):
    args = {}
    i = 0
    while i < len(argv):
        key = argv[i]
        if key not in ("--workload", "--seed", "--seconds", "--trace") or i + 1 >= len(argv):
            return None
        args[key[2:]] = argv[i + 1]
        i += 2
    if set(args) != {"workload", "seed", "seconds", "trace"}:
        return None
    if args["workload"] not in WORKLOADS or args["trace"] not in ("0", "1"):
        return None
    if not args["seed"].isdigit():
        return None
    try:
        if float(args["seconds"]) <= 0:
            return None
    except ValueError:
        return None
    return args


def source_digest():
    """SHA-256 over the sources the build reads (a checkout need not be git)."""
    digest = hashlib.sha256()
    for root in SOURCE_ROOTS:
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(root) for f in files)
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit_id():
    if not os.path.isdir(".git"):
        return "none (not a git checkout)"
    try:
        env = dict(os.environ, GIT_DIR=".git")
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             env=env, timeout=10, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(build_dir):
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", "perfbench", "-B", build_dir, *generator,
                        "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "dlm_perfbench", "dl_serve",
                    "-j", jobs], stdout=sys.stderr, check=True)


def kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def main(argv):
    args = parse_args(argv)
    if args is None:
        return fail("usage: run.py --workload <%s> --seed N --seconds S --trace 0|1"
                    % "|".join(WORKLOADS))
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(needed):
            return fail("run from the repository root: %s is missing" % needed)

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        return fail("build failed: %s" % error)

    run_dir = os.path.join(".bench_run", str(os.getpid()))
    command = [os.path.join(build_dir, "dlm_perfbench"),
               "--workload", args["workload"], "--seed", args["seed"],
               "--seconds", args["seconds"], "--trace", args["trace"],
               "--serve-bin", os.path.join(build_dir, "tools", "dl_serve"),
               "--run-dir", run_dir, "--out-dir", ".bench_out",
               "--commit", commit_id(), "--source-digest", source_digest()]
    # A process group of its own: a timeout kills the binary and anything
    # it spawned that stayed in that group; dl_serve children run in groups
    # of their own, which the binary kills on every exit path.
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.send_signal(signal.SIGTERM)  # the binary kills its servers
        try:
            proc.wait(timeout=2)
        except subprocess.TimeoutExpired:
            pass
        kill_group(proc.pid)
        proc.wait()
        return fail("timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            kill_group(proc.pid)
            proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(".bench_run")
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
