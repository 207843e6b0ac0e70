#!/usr/bin/env python3
"""Builds the replica stack with the benchmark program and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The program's sources (src/) are compiled
together with perfbench/src into $CARGO_TARGET_DIR (default .bench_build);
the first run builds, later runs only check that the build is current.  The
program's output is passed through; its last line is the JSON result.  See
perfbench/NOTES.md for the workloads and metrics.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds scab-perfbench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "bft", "replica.cc")):
        print("perfbench: program sources not found under %s/src" % ROOT,
              file=sys.stderr)
        return None
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    # The compiler's temporary files stay inside the build directory too.
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Bench"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            print("perfbench: build failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(out, "scab-perfbench")


def run(binary, args, timeout=RUN_TIMEOUT_S):
    """Runs scab-perfbench; returns (exit code, stdout text)."""
    cmd = [binary, "--out", os.path.join(build_dir(), "run")] + list(args)
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout,
                           text=True)
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        print("perfbench: run exceeded %d s" % timeout, file=sys.stderr)
        return 1, out
    return p.returncode, p.stdout


def main(argv):
    binary = build()
    if binary is None:
        return 2
    code, out = run(binary, argv)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
