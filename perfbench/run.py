#!/usr/bin/env python3
"""Builds and runs the ssum benchmark (see perfbench/README.md).

One run:         python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
Steadiness:      python3 perfbench/run.py --steadiness [--runs 10] [--workloads a,b]
Re-pin outputs:  python3 perfbench/run.py --pin

The benchmark is built from source (Release) into .bench_build/ at the root
of the checkout on first use. A run prints the environment header and the
record, then one JSON result as the last line of standard output.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "ssum_perfbench"
WORKLOADS = ["paper_cold", "wide_schema", "version_chain", "serve_warm"]


def log(message):
    print(message, file=sys.stderr, flush=True)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark; exits 2 when it cannot."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("run.py: the library sources (src/) are missing; cannot build")
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            log("run.py: build failed: " + " ".join(step))
            sys.exit(2)


def revision():
    """Git revision when the checkout has one, plus a digest of the sources."""
    rev = "unknown"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short",
                              "HEAD"], capture_output=True, text=True)
        if out.returncode == 0:
            rev = out.stdout.strip()
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "git:%s src:%s" % (rev, digest.hexdigest()[:12])


def child_env():
    env = dict(os.environ)
    env.pop("SSUM_THREADS", None)  # the benchmark fixes its thread count
    return env


def run_binary(args, capture):
    work = BUILD / "work" / ("%s-%d" % (args[1], os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    cmd = [str(BINARY)] + args + ["--expected-dir", str(HERE / "expected"),
                                  "--work-dir", str(work)]
    try:
        return subprocess.run(cmd, env=child_env(), text=True,
                              stdout=subprocess.PIPE if capture else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_names(result, trace):
    """The metrics printed must be exactly the ones BENCHMARK.json lists."""
    listed = spec()["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        log("run.py: metrics differ from BENCHMARK.json: missing %s, extra %s"
            % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
        return False
    return True


def one_run(opts):
    build()
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace),
            "--revision", revision()]
    proc = run_binary(args, capture=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("run.py: no JSON result on the last line")
        return 1
    return 0 if check_names(result, opts.trace == 1) else 1


def pin():
    build()
    for workload in WORKLOADS:
        proc = run_binary(["--workload", workload, "--seed", "1",
                           "--seconds", "1", "--trace", "0", "--pin"],
                          capture=False)
        if proc.returncode != 0:
            return proc.returncode
    return 0


def steadiness(opts):
    """Runs each workload with `runs` seeds and prints, per end-to-end
    metric, the median, quartiles and IQR/median against its bound."""
    build()
    bench = spec()
    seconds = opts.seconds or bench["run_seconds"]
    workloads = opts.workloads.split(",") if opts.workloads else WORKLOADS
    status = 0
    for workload in workloads:
        values, records = {}, {}
        for seed in range(opts.first_seed, opts.first_seed + opts.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace",
                 "0"], capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                log(proc.stderr)
                log("%s seed %d failed (exit %d)" % (workload, seed,
                                                     proc.returncode))
                return 1
            lines = proc.stdout.strip().splitlines()
            for name, metric in json.loads(lines[-1])["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            # Numeric record lines (the workload's named metrics) too.
            for line in lines:
                if line.startswith("record "):
                    name, _, value = line[len("record "):].partition(": ")
                    try:
                        records.setdefault(name, []).append(float(value))
                    except ValueError:
                        pass
        print("%s (%d runs, %g s each)" % (workload, opts.runs, seconds))
        for name, vals in values.items():
            print("  %-18s %s" % (name, " ".join("%.6g" % v for v in vals)))
        for metric in bench["end_to_end"]:
            vals = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            verdict = ("steady" if spread < metric["bound"] / 3 else
                       "within bound" if spread <= metric["bound"] else "WIDE")
            if verdict == "WIDE" and metric["name"] != "setup_s":
                status = 1
            print("  %-18s median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "IQR/median %.4f  bound %.2f  %s"
                  % (metric["name"], median, q1, q3, spread, metric["bound"],
                     verdict))
        for name, vals in records.items():
            if len(vals) == opts.runs and not name.startswith("regime."):
                q1, median, q3 = statistics.quantiles(vals, n=4)
                if median:
                    print("  record %-28s median %-12.6g IQR/median %.4f"
                          % (name, median, (q3 - q1) / median))
        sys.stdout.flush()
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite the pinned expected outputs")
    parser.add_argument("--steadiness", action="store_true",
                        help="run each workload with several seeds")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated subset")
    opts = parser.parse_args()
    if opts.pin:
        return pin()
    if opts.steadiness:
        return steadiness(opts)
    if opts.workload is None:
        parser.error("--workload is required")
    if opts.seconds is None:
        opts.seconds = spec()["run_seconds"]
    return one_run(opts)


if __name__ == "__main__":
    sys.exit(main())
