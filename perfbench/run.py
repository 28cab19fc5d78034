#!/usr/bin/env python3
"""Build and run the simulator's host-speed benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-scan --seed 1 --seconds 30 --trace 0

builds perfbench/ (and the simulator libraries under src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, and prints as its last stdout line one JSON object with the
keys correct, attempted, failed and metrics. Other modes:

    --pin        rewrite perfbench/golden.txt from the current sources
    --selftest   prove the output check can fail: a tampered digest
                 must be counted in `failed` on every workload

Build logs go to stderr. Exits non-zero, printing no result, when the
simulator sources are missing or anything fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.txt")
WORKLOADS = ["sweep-scan", "sweep-local", "oracle", "checkpoint"]
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_logged(cmd):
    """Run a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build():
    """Configure once, then build incrementally. Returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
    for _ in range(2):
        fresh = not os.path.isfile(os.path.join(bdir, "CMakeCache.txt"))
        if (not fresh or run_logged(configure)) and run_logged(
                ["cmake", "--build", bdir, "-j", jobs]):
            return os.path.join(bdir, "perfbench")
        # A cache left by another source tree: start over once.
        shutil.rmtree(bdir, ignore_errors=True)
    fail("build failed")


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_digest():
    """sha256 over the simulator and benchmark sources (no git needed)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_binary(binary, args, golden=GOLDEN):
    """Run one workload; returns (stdout lines, parsed result)."""
    scratch = os.path.join(build_dir(), "run")
    os.makedirs(scratch, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden", golden, "--scratch", scratch,
           "--commit", commit(), "--src-digest", src_digest()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out" % args.workload)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("workload %s exited with %d" % (args.workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        fail("workload %s printed no result" % args.workload)
    return lines, result


def selftest(binary):
    """A flipped digest must be counted as failed ops on every workload;
    the true digests must pass."""
    tampered = os.path.join(build_dir(), "golden-tampered.txt")
    with open(GOLDEN) as f:
        lines = f.read().splitlines()
    out = []
    for line in lines:
        if line and not line.startswith("#"):
            key, hexd = line.split()
            line = "%s %016x" % (key, int(hexd, 16) ^ 1)
        out.append(line)
    with open(tampered, "w") as f:
        f.write("\n".join(out) + "\n")
    ok = True
    for workload in WORKLOADS:
        args = argparse.Namespace(workload=workload, seed=1, seconds=0.5, trace=0)
        _, clean = run_binary(binary, args)
        _, bad = run_binary(binary, args, golden=tampered)
        passed = (clean["correct"] and clean["failed"] == 0 and
                  not bad["correct"] and bad["failed"] == bad["attempted"] > 0)
        print("%-12s clean: %d/%d failed; tampered: %d/%d failed  %s" % (
            workload, clean["failed"], clean["attempted"], bad["failed"],
            bad["attempted"], "ok" if passed else "FAIL"))
        ok = ok and passed
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.pin:
        scratch = os.path.join(build_dir(), "run")
        os.makedirs(scratch, exist_ok=True)
        code = subprocess.run([binary, "--pin", "--golden", GOLDEN,
                               "--scratch", scratch]).returncode
        sys.exit(code)
    if args.selftest:
        sys.exit(selftest(binary))
    if args.workload is None:
        parser.error("--workload is required")
    lines, result = run_binary(binary, args)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
