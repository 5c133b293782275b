#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <dense_sync|traced_monitor|e2_sweep|all>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first call configures and builds
perfbench/ (the simulator library from src/ plus the urn_perfbench binary) in
Release mode under $CARGO_TARGET_DIR (default .bench_build); later calls
only rebuild what changed.  The binary's stdout is passed through; its last
line is the JSON result.

On top of the binary's own checks this script pins determinism across
invocations: the simulated counts of every run (the binary's `counts` line)
are stored per workload and seed next to the build, and a later run of the
same binary at the same seed must reproduce every count it shares with the
stored ones, or the result is marked incorrect and the exit status is 1.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # the build is not counted


def run_group(cmd, timeout, **kwargs):
    """subprocess.run in its own process group; the whole group is killed
    (and reaped) on timeout, so no compiler or worker outlives us."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build(build_dir):
    """Configure (once) and build the binary; returns its path or exits 2."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(os.path.join(build_dir, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not any(os.path.exists(os.path.join(build_dir, f))
                   for f in ("Makefile", "build.ninja")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target",
                      "urn_perfbench", "-j", str(os.cpu_count() or 2)])
        for cmd in steps:
            try:
                code, _ = run_group(cmd, 850, stdout=log,
                                    stderr=subprocess.STDOUT)
            except (OSError, subprocess.TimeoutExpired) as e:
                code = f"{type(e).__name__}: {e}"
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                sys.stderr.write(f"perfbench: build step {cmd} failed "
                                 f"({code}); log tail:\n{tail}\n")
                sys.exit(2)
    return os.path.join(build_dir, "urn_perfbench")


def check_determinism(store_path, key, binary, counts):
    """Compare `counts` with the stored counts of the same binary at the
    same key; returns the differing names (empty = consistent)."""
    st = os.stat(binary)
    binary_id = f"{st.st_mtime_ns}:{st.st_size}"
    with open(store_path, "a+") as f:
        fcntl.flock(f, fcntl.LOCK_EX)
        f.seek(0)
        try:
            store = json.loads(f.read() or "{}")
        except ValueError:
            store = {}
        entry = store.get(key)
        if entry is None or entry.get("binary") != binary_id:
            entry = {"binary": binary_id, "counts": {}}
        known = entry["counts"]
        differ = sorted(k for k in counts if k in known and
                        known[k] != counts[k])
        if not differ:
            known.update(counts)
            store[key] = entry
            f.seek(0)
            f.truncate()
            f.write(json.dumps(store, indent=1, sort_keys=True))
    return differ


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated run still reaps its build or binary (see run_group).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    binary = build(os.path.join(target, "perfbench"))
    out_dir = os.path.join(target, "perfbench-out")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                              text=True, cwd=ROOT)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 3
    lines = out.rstrip("\n").split("\n")
    if code not in (0, 1) or len(lines) < 2 or \
            not lines[-2].startswith("counts "):
        sys.stdout.write(out)
        sys.stderr.write(f"perfbench: urn_perfbench exited {code} without a "
                         "result\n")
        return code or 3
    result = json.loads(lines[-1])
    counts = json.loads(lines[-2][len("counts "):])
    differ = check_determinism(os.path.join(out_dir, "counts.json"),
                               f"{args.workload}/seed{args.seed}", binary,
                               counts)
    if differ:
        sys.stderr.write("perfbench: counts differ from an earlier run of "
                         "this binary at this seed: " + ", ".join(differ) +
                         "\n")
        result["correct"] = False
        code = 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
