#!/usr/bin/env python3
"""Entry point of the QueryServer benchmark (see README.md here).

Run from the root of a checkout:

  python3 serverbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 serverbench/run.py --report --workload NAME [--runs 10] [--trace 0]
  python3 serverbench/run.py --check-protocol --workload NAME [--ops 400]
  python3 serverbench/run.py --smoke

The first call builds the benchmark (Release) into the directory named by
CARGO_TARGET_DIR, default `.bench_build`. The last line a run prints is
its result object; everything else goes before it or to stderr.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the driver and hypo_serve; exits 1 on failure."""
    out = build_dir()
    cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.exit("serverbench: configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = subprocess.call(
        ["cmake", "--build", out, "--target", "serverbench", "hypo_serve",
         "--parallel", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if rc != 0:
        sys.exit("serverbench: build failed")
    return os.path.join(out, "serverbench"), os.path.join(out, "hypo_serve")


def load_workloads():
    with open(os.path.join(HERE, "workloads.json")) as f:
        return json.load(f)


def params_for(spec, name, overrides=None):
    if name not in spec["workloads"]:
        sys.exit("serverbench: unknown workload %r (have: %s)" %
                 (name, ", ".join(spec["workloads"])))
    params = dict(spec["workloads"][name]["params"])
    params.update(overrides or {})
    args = []
    for key, value in params.items():
        args += ["--param", "%s=%s" % (key, value)]
    return params, args


def run_driver(binary, argv):
    """Runs the driver; returns (exit code, stdout text)."""
    try:
        proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("serverbench: driver timed out", file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def workdir():
    return os.path.join(build_dir(), "work")


def run_once(binary, spec, name, seed, seconds, trace, overrides=None):
    _, args = params_for(spec, name, overrides)
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--workdir", workdir()] + args
    return run_driver(binary, argv)


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(binary, spec, name, runs, trace, seconds, first_seed):
    """Two interleaved sets of runs over seeds first_seed.. ; prints spreads."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    sets = {"A": {}, "B": {}}
    failed = {"A": [], "B": []}
    for i in range(runs):
        for label in ("A", "B"):
            seed = first_seed + i
            rc, out = run_once(binary, spec, name, seed, seconds, trace)
            result = last_json(out) if rc == 0 else None
            if result is None or not result.get("correct"):
                sys.exit("serverbench: run %s seed %d failed" % (label, seed))
            failed[label].append(result["failed"])
            for metric, v in result["metrics"].items():
                sets[label].setdefault(metric, []).append(v["value"])
            print("%s seed %d done" % (label, seed), file=sys.stderr)
    rows = {}
    print("%-34s %12s %12s %12s %8s %8s %8s %7s" %
          ("metric", "median A", "q1 A", "q3 A", "spreadA", "spreadB",
           "gap", "bound"))
    for metric in sets["A"]:
        a, b = sets["A"][metric], sets["B"][metric]
        q1a, meda, q3a = quartiles(a)
        q1b, medb, q3b = quartiles(b)
        spread_a = (q3a - q1a) / meda if meda else float("inf")
        spread_b = (q3b - q1b) / medb if medb else float("inf")
        gap = (medb - meda) / meda if meda else float("inf")
        bound = bounds.get(metric)
        rows[metric] = {"median_a": meda, "q1_a": q1a, "q3_a": q3a,
                        "median_b": medb, "q1_b": q1b, "q3_b": q3b,
                        "spread_a": spread_a, "spread_b": spread_b,
                        "gap": gap, "bound": bound, "values_a": a,
                        "values_b": b}
        print("%-34s %12.6g %12.6g %12.6g %8.4f %8.4f %+8.4f %7s" %
              (metric, meda, q1a, q3a, spread_a, spread_b, gap,
               "-" if bound is None else bound))
    print(json.dumps({"workload": name, "runs": runs, "trace": trace,
                      "failed_a": failed["A"], "failed_b": failed["B"],
                      "metrics": rows}))


def check_protocol(binary, hypo_serve, spec, name, ops, seed, overrides=None):
    """Pipes a script prefix through hypo_serve; compares every response."""
    params, args = params_for(spec, name,
                              dict(overrides or {}, prefill_commits=0))
    if params["engine"] == "tabled":
        sys.exit("serverbench: %s is excluded from the protocol check "
                 "(hypo_serve has no step-budget flag)" % name)
    out = os.path.join(workdir(), "protocol-%s-%d" % (name, os.getpid()))
    shutil.rmtree(out, ignore_errors=True)
    rc, _ = run_driver(binary, ["--emit-protocol", str(ops), "--out", out,
                                "--seed", str(seed), "--workdir", workdir()]
                       + args)
    if rc != 0:
        sys.exit("serverbench: could not emit the protocol script")
    with open(os.path.join(out, "hypo_serve_args.txt")) as f:
        cmd = [hypo_serve, os.path.join(out, "program.hdl")]
        cmd += f.read().splitlines()
    with open(os.path.join(out, "script.txt")) as script:
        proc = subprocess.run(cmd, stdin=script, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    with open(os.path.join(out, "expected.txt")) as f:
        expected = f.read().splitlines()
    got = proc.stdout.splitlines()
    shutil.rmtree(out, ignore_errors=True)
    for i, (e, g) in enumerate(zip(expected, got)):
        if e != g:
            sys.exit("serverbench: protocol mismatch at response line %d: "
                     "expected %r, hypo_serve said %r" % (i + 1, e, g))
    if len(expected) != len(got) or proc.returncode != 0:
        sys.exit("serverbench: protocol response count %d != %d (exit %d)" %
                 (len(got), len(expected), proc.returncode))
    print("protocol %s: %d responses match" % (name, len(expected)))


# Small sizes for the smoke mode: every workload, both run kinds, seconds.
SMOKE = {"registrar_tabled": {"students": 200, "courses": 24},
         "registrar_whatif": {"students": 16, "courses": 16},
         "registrar_churn": {"students": 16, "courses": 16,
                             "prefill_commits": 30, "checkpoint_every": 20}}


def check_config(spec, name, detail):
    """The detail line must record the configuration workloads.json lists."""
    config = detail["serverbench_detail"]["config"]
    listed = dict(spec["fixed"], fsync=spec["workloads"][name]["fsync"])
    for key, value in listed.items():
        got = config.get(key, config["sizes"].get(key))
        if got != value:
            sys.exit("serverbench smoke: %s records %s=%r, workloads.json "
                     "lists %r" % (name, key, got, value))


def smoke(binary, hypo_serve, spec):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for name in spec["workloads"]:
        overrides = dict(SMOKE.get(name, {}), min_per_kind=20,
                         nominal_ops_per_s=40)
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            rc, out = run_once(binary, spec, name, 7, 1, trace, overrides)
            result = last_json(out) if rc == 0 else None
            if result is None or not result.get("correct"):
                sys.exit("serverbench smoke: %s trace=%d failed" % (name, trace))
            check_config(spec, name, json.loads(out.splitlines()[-2]))
            named = {m["name"] for m in bench[group]}
            if set(result["metrics"]) != named:
                sys.exit("serverbench smoke: %s trace=%d prints %s, "
                         "BENCHMARK.json names %s" %
                         (name, trace, sorted(result["metrics"]),
                          sorted(named)))
        if spec["workloads"][name]["params"]["engine"] != "tabled":
            check_protocol(binary, hypo_serve, spec, name, 60, 7, overrides)
        print("smoke %s ok" % name)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true",
                    help="two interleaved sets of --runs runs; print spreads")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--check-protocol", action="store_true",
                    help="compare hypo_serve responses with in-process ones")
    ap.add_argument("--ops", type=int, default=400)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny run of every workload and mode")
    args = ap.parse_args()

    spec = load_workloads()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        run_seconds = json.load(f)["run_seconds"]
    binary, hypo_serve = build()
    seed = spec["default_seed"] if args.seed is None else args.seed
    seconds = run_seconds if args.seconds is None else args.seconds
    if args.smoke:
        smoke(binary, hypo_serve, spec)
        return 0
    if not args.workload:
        ap.error("--workload is required")
    if args.report:
        report(binary, spec, args.workload, args.runs, args.trace, seconds,
               seed)
        return 0
    if args.check_protocol:
        check_protocol(binary, hypo_serve, spec, args.workload, args.ops, seed)
        return 0
    rc, out = run_once(binary, spec, args.workload, seed, seconds, args.trace)
    sys.stdout.write(out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
