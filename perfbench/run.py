#!/usr/bin/env python3
"""Host-performance benchmark of putget-sim.

Builds perfbench/ (the simulator libraries from src/ plus the driver)
with CMake, runs one workload through the driver, checks every simulated
result against the digests in perfbench/expected.json, writes a result
file with a run manifest, and prints the metrics. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload gpu_driven --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --record      # rewrite expected.json

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
its per-layer metrics. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gpu_driven", "host_bulk", "cluster_rma")
# The default seed, and a held-out seed that was used for no tuning.
RECORDED_SEEDS = (1, 90210)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def engine_threads():
    return min(4, len(os.sched_getaffinity(0)))


def build(bdir):
    """Configures and builds the driver; build output goes to stderr."""
    jobs = str(engine_threads())
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "--target",
                  "perfbench_driver", "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return bdir / "perfbench_driver"


def driver_env():
    env = dict(os.environ)
    # The library honours this override of the engine thread count; the
    # T1 and Tn legs must get exactly the counts they ask for.
    env.pop("PG_FORCE_THREADS", None)
    return env


def run_driver(exe, args, timeout):
    r = subprocess.run([str(exe)] + args, stdout=subprocess.PIPE,
                       stderr=sys.stderr, text=True, env=driver_env(),
                       timeout=timeout)
    lines = [ln for ln in r.stdout.splitlines() if ln.startswith("{")]
    if r.returncode != 0 or not lines:
        log(f"driver exited with code {r.returncode}")
        return None
    return json.loads(lines[-1])


def git_rev():
    if not (ROOT / ".git").exists():
        return "unavailable"
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() or "unavailable"
    except OSError:
        return "unavailable"


def source_digest():
    """sha256 over the simulator and benchmark sources: two result files
    with the same digest measured the same code."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and p.suffix in (".cc", ".h", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def load_json(path):
    with open(path) as f:
        return json.load(f)


def check_digests(out, expected, workload, seed):
    """Counts one check per item digest and one for the workload digest
    when expected.json records this seed. Returns (attempted, failures)."""
    items = expected["items"]
    failures = []
    for key, digest in out["items"]:
        if items.get(key) != digest:
            failures.append(f"{key}: digest {digest}, recorded "
                            f"{items.get(key, 'none')}")
    attempted = len(out["items"])
    recorded = expected["seeds"].get(workload, {}).get(str(seed))
    if recorded is not None:
        attempted += 1
        if recorded != out["digest"]:
            failures.append(f"{workload} seed {seed}: digest "
                            f"{out['digest']}, recorded {recorded}")
    return attempted, failures


def metric_defs(trace):
    bench = load_json(ROOT / "BENCHMARK.json")
    return bench["per_layer" if trace else "end_to_end"]


def run(args):
    exe = build(build_dir())
    if exe is None:
        return 1
    threads = engine_threads()
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    drv_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--threads", str(threads)]
    if args.trace:
        drv_args += ["--spans", str(results / f"{stem}.spans.json")]
    out = run_driver(exe, drv_args, RUN_TIMEOUT_S)
    if out is None:
        return 1

    attempted, digest_failures = check_digests(
        out, load_json(HERE / "expected.json"), args.workload, args.seed)
    attempted += out["attempted"]
    failed = out["failed"] + len(digest_failures)
    failures = out["failures"] + digest_failures

    if args.trace:
        values = out["per_layer"]
    else:
        values = {"wall_s": statistics.median(out["wall_s"]),
                  "setup_s": statistics.median(out["setup_s"]),
                  "peak_rss_mb": out["peak_rss_mb"]}
    metrics = {}
    for m in metric_defs(args.trace):
        if m["name"] not in values:
            log(f"driver did not report {m['name']}")
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    manifest = {
        "build_type": out["build_type"],
        "compiler": out["compiler"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "engine_threads": threads,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": out["params"],
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    result = {"manifest": manifest, "metrics": metrics,
              "passes": out["passes"], "wall_s": out["wall_s"],
              "setup_s": out["setup_s"], "attempted": attempted,
              "failed": failed, "failures": failures,
              "digest": out["digest"], "items": out["items"]}
    with open(results / f"{stem}.json", "w") as f:
        json.dump(result, f, indent=1)

    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_frac':32s} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} checks, {out['passes']} passes)")
    for msg in failures:
        print(f"FAILED: {msg}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def record():
    """Rewrites expected.json: the digest of every catalog item, and the
    whole-workload digest of each recorded seed."""
    exe = build(build_dir())
    if exe is None:
        return 1
    seeds = list(RECORDED_SEEDS)
    expected = {"recorded_seeds": seeds, "items": {}, "seeds": {}}
    threads = str(engine_threads())
    for w in WORKLOADS:
        out = run_driver(exe, ["--catalog", w], 600)
        if out is None or out["failed"]:
            log(f"catalog run of {w} failed")
            return 1
        expected["items"].update(dict(out["items"]))
        expected["seeds"][w] = {}
        for s in seeds:
            out = run_driver(exe, ["--workload", w, "--seed", str(s),
                                   "--seconds", "1", "--trace", "0",
                                   "--threads", threads], 600)
            if out is None or out["failed"]:
                log(f"{w} seed {s} failed its checks")
                return 1
            expected["seeds"][w][str(s)] = out["digest"]
    with open(HERE / "expected.json", "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"recorded {len(expected['items'])} item digests")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="rewrite expected.json from the current build")
    args = p.parse_args()
    if args.record:
        return record()
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    try:
        return run(args)
    except (subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        log(f"{type(e).__name__}: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
