#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload parboil --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. The benchmark binary is built from source
(Release) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.
The last line of standard output is the JSON result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--smoke runs every workload of BENCHMARK.json once at tiny size, traced and
untraced, and checks that every metric it names is present, finite and has
its unit, and that no job failed.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/CMakeLists.txt) not found next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            r = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
            if r.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd), 1)
    return os.path.join(out, "perfbench")


def git_info():
    """(sha, dirty) of the checkout, or a content digest when it is not git."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
            dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                    "--untracked-files=no"],
                                   capture_output=True, text=True,
                                   check=True).stdout.strip()
            return sha, "1" if dirty else "0"
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16], "n/a"


def run_binary(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    sha, dirty = git_info()
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary] + args + ["--git-sha", sha, "--git-dirty", dirty,
                             "--trace-dir", trace_dir]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    return r.returncode, r.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(res, dict) or set(res) != {"correct", "attempted",
                                                  "failed", "metrics"}:
        return None
    return res


def smoke(binary, service_rate):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, group in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            args = ["--workload", w["name"], "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--tiny",
                    "--service-rate", str(service_rate)]
            code, lines = run_binary(binary, args)
            res = parse_result(lines)
            tag = f"{w['name']} trace={trace}"
            if code != 0 or res is None:
                problems.append(f"{tag}: exit {code}, no result")
                continue
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append(f"{tag}: correct={res['correct']} "
                                f"failed={res['failed']} "
                                f"attempted={res['attempted']}")
            for m in group:
                got = res["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"{tag}: metric {m['name']} missing")
                elif not isinstance(got.get("value"), (int, float)) or \
                        not math.isfinite(got["value"]):
                    problems.append(f"{tag}: metric {m['name']} not finite")
                elif got.get("unit") != m["unit"]:
                    problems.append(f"{tag}: metric {m['name']} unit "
                                    f"{got.get('unit')} != {m['unit']}")
            extra = set(res["metrics"]) - {m["name"] for m in group}
            if extra:
                problems.append(f"{tag}: metrics not in BENCHMARK.json: "
                                f"{sorted(extra)}")
            print(f"smoke {tag}: {res['attempted']} jobs, "
                  f"{len(res['metrics'])} metrics")
    for p in problems:
        print("SMOKE FAIL " + p)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--service-rate", type=float, default=0.0,
                    help="service workload arrivals per second")
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload once at tiny size and check "
                         "the metric set")
    a = ap.parse_args()

    binary = build()
    if a.smoke:
        sys.exit(smoke(binary, a.service_rate or 200.0))
    if not a.workload:
        fail("--workload is required")
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.service_rate > 0:
        args += ["--service-rate", str(a.service_rate)]
    code, lines = run_binary(binary, args)
    if code != 0 or parse_result(lines) is None:
        for line in lines:
            print("  " + line, file=sys.stderr)
        fail(f"benchmark run failed (exit {code})", code or 1)
    for line in lines:
        print(line)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
