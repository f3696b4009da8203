#!/usr/bin/env python3
"""End-to-end benchmark driver (see README.md in this directory).

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library and the `pftk_e2e`
harness from source into $CARGO_TARGET_DIR (default .bench_build) —
build output goes to stderr — then runs one workload and prints:

    provenance {...}   host, build and workload facts
    {...}              the result, always the last line of stdout

Exits non-zero without a result line when the build or the run fails,
or when the harness reports metrics other than BENCHMARK.json names.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(target_dir):
    build_dir = os.path.join(target_dir, "cmake")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    cmd = ["cmake", "--build", build_dir, "--target", "pftk_e2e", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "pftk_e2e")


def l3_bytes():
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level")) as f:
                if f.read().strip() != "3":
                    continue
            with open(os.path.join(base, index, "size")) as f:
                size = f.read().strip()
            scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(size[-1:], 1)
            return int(size.rstrip("KMG")) * scale
    except OSError:
        pass
    return 0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    driver runs is not a git repository, so a commit id may be absent)."""
    h = hashlib.sha256()
    for top in ("src", os.path.relpath(HERE, ROOT)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def host_facts(target_dir):
    host = {"cpu_model": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
            "l3_bytes": l3_bytes()}
    record = os.path.join(target_dir, "host.json")
    facts = dict(host)
    if os.path.exists(record):
        with open(record) as f:
            first = json.load(f)
        changed = sorted(k for k in host if first.get(k) != host[k])
        if changed:
            # Results from this build tree were measured on another host.
            facts["host_mismatch"] = changed
            log("WARNING: host differs from this build tree's first run in " +
                ", ".join(changed) + "; do not compare these results")
    else:
        with open(record, "w") as f:
            json.dump(host, f)
    return facts


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(ROOT, ".bench_build"))
    os.makedirs(target_dir, exist_ok=True)
    binary = build(target_dir)
    if binary is None:
        log("build failed")
        return 1

    # Relative to the root when possible: serve_mix binds a unix socket
    # under the work directory, and socket paths are capped at 107 bytes.
    rel = os.path.relpath(target_dir, ROOT)
    out_dir = target_dir if rel.startswith("..") else rel
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(out_dir, "work"),
           "--spans-dir", os.path.join(out_dir, "spans")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("workload timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        log("harness exited %d" % run.returncode)
        return 1
    result_line = lines[-1]
    result = json.loads(result_line)
    workload = {}
    for line in lines[:-1]:
        if line.startswith("workload "):
            workload = json.loads(line[len("workload "):])

    expected = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if expected is not None and got != expected:
        log("harness metrics differ from BENCHMARK.json: %s" %
            sorted(set(got.items()) ^ set(expected.items())))
        return 1

    provenance = host_facts(target_dir)
    provenance.update({"build_type": BUILD_TYPE, "commit": commit(),
                       "source_digest": source_digest(), "seed": args.seed,
                       "trace": args.trace, "workload": workload})
    for key in ("capture_bytes", "calib_bytes"):
        if key in workload and provenance["l3_bytes"]:
            provenance[key + "_vs_l3"] = int(workload[key]) / provenance["l3_bytes"]
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(result_line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
