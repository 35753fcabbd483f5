#!/usr/bin/env python3
"""Build the specnoc perf ledger from source and run it.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper_saturation --seed 42 \
        --seconds 20 --trace 0

builds perfbench/ (and the specnoc library it links) into the directory
named by CARGO_TARGET_DIR, or .bench_build, then runs one workload. The last
line of standard output is the result JSON. Build output goes to standard
error. A failed build exits 2 without printing a result.

    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

runs every workload untraced and traced (one process each, so peak RSS is per
workload) and prints every metric by name and unit.

    python3 perfbench/run.py --test

builds and runs the benchmark's own unit tests.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_saturation", "paper_openloop", "radix1024", "cmp64"]
# Each workload process must end within 180 s; leave room for start-up.
RUN_TIMEOUT_S = 175


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build(targets):
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    steps = [configure, ["cmake", "--build", out, "-j", jobs, "--target"] +
             targets]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            sys.exit(2)
    return out


def source_revision():
    """The git commit, or a digest of the sources outside a git checkout."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run_binary(binary, args):
    """Runs the benchmark binary, passing its output through; returns (code,
    last line)."""
    with subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print("perfbench: benchmark exceeded %d s" % RUN_TIMEOUT_S,
                  file=sys.stderr)
            return 1, ""
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else "")


def run_all(binary, args):
    """Every workload, untraced then traced, summarised in one table."""
    rows = []
    status = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, last = run_binary(
                binary, ["--workload", workload, "--trace", trace] + args)
            if code != 0:
                status = 1
                continue
            result = json.loads(last)
            if not result["correct"]:
                status = 1
            rows.append(("%s/cell_fail_rate%s" % (
                workload, ".traced" if trace == "1" else ""),
                result["failed"] / result["attempted"], "ratio"))
            for name, metric in result["metrics"].items():
                rows.append(("%s/%s" % (workload, name), metric["value"],
                             metric["unit"]))
    print("\n== perf ledger: all workloads ==")
    for name, value, unit in rows:
        print("%-48s %16.6g %s" % (name, value, unit))
    return status


def main(argv):
    if "--test" in argv:
        out = build(["perfbench_tests"])
        return subprocess.run([os.path.join(out, "perfbench_tests")]).returncode
    out = build(["perfbench"])
    binary = os.path.join(out, "perfbench")
    os.environ["PERFBENCH_COMMIT"] = source_revision()
    if "--workload" in argv:
        i = argv.index("--workload")
        if i + 1 < len(argv) and argv[i + 1] == "all":
            return run_all(binary, argv[:i] + argv[i + 2:])
    code, _ = run_binary(binary, argv)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
