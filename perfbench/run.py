"""The bmkit benchmark: two workloads driven through the `bmk` front end.

    python3 perfbench/run.py --workload verify-sweep|survey-dup \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds `src/bmkit`. Each run starts
fresh worker processes (worker.py): one untimed warm-up that fills bytecode
caches, four that only set up, and one that sets up, issues whole blocks of
the workload's commands for about S seconds and checks their reports with the
oracle. Set-up time is the median over the last five. End-to-end times are
scaled to a fixed host speed by a probe kernel timed next to them (see
PROBE_REF_S). With --trace 1 that worker also runs each command a second time
with spans recorded around bmkit's public functions, and the run reports
per-layer metrics, unscaled, instead of end-to-end ones.

The last line of standard output is one JSON object with the keys correct,
attempted (commands issued), failed (commands that errored) and metrics. The
line before it, prefixed "perfbench-report", carries provenance and the
oracle's details. Workers run single-threaded: BMK_THREADS is removed from
their environment and BLAS/OpenMP pools are pinned to one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-sweep", "survey-dup")
SETUP_RUNS = 5            # set-up time is the median over this many fresh processes
# The host probe's time (worker.host_probe) at the speed the end-to-end times are
# reported at. A command's latency is multiplied by PROBE_REF_S over the median of
# the probes run nearest to it (PROBE_NEIGHBOURS on each side, same process); a
# set-up time by PROBE_REF_S over its own process's probe. A host that runs slower
# for a while then reads the same; the unscaled values are in the report line.
PROBE_REF_S = 0.020
PROBE_NEIGHBOURS = 4
DEADLINE_S = 170.0        # a run must end within 180 s


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "BMK_THREADS"}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, mode: str, deadline: float):
    """Start a worker; returns (seconds until READY, process) or raises RuntimeError."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc, deadline)
        raise RuntimeError(f"worker did not start ({mode}): {line.strip()!r}")
    return ready, proc


def finish(proc, deadline: float) -> str:
    """Read the rest of a worker's output and reap it."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker exceeded the run deadline")
    return out


def measure(args):
    deadline = time.monotonic() + DEADLINE_S
    _, warm = spawn(args, "setup", deadline)
    finish(warm, deadline)
    setups = []   # (seconds until READY, that process's probe time)
    for _ in range(SETUP_RUNS - 1):
        ready, proc = spawn(args, "setup", deadline)
        setups.append((ready, json.loads(finish(proc, deadline))["probe_s"]))
    ready, proc = spawn(args, "trace" if args.trace else "measure", deadline)
    out = proc.stdout.read()  # wait4 rather than wait: it reports this worker's own peak RSS
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    result = json.loads(lines[-1])
    result["setups_s"] = setups + [(ready, statistics.median(result["probes_s"]))]
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports kilobytes
    return result


def host_scaled(latencies, probes):
    """Each latency times PROBE_REF_S over the median probe time around it."""
    k = PROBE_NEIGHBOURS
    return [x * PROBE_REF_S / statistics.median(probes[max(0, i - k):i + k + 1])
            for i, x in enumerate(latencies)]


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def provenance() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}
    try:
        info["cpu_affinity"] = len(os.sched_getaffinity(0))
    except AttributeError:
        pass
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                      if ln.startswith("model name")), platform.processor())
    except OSError:
        info["cpu_model"] = platform.processor()
    try:
        import numpy
        info["numpy"] = numpy.__version__
    except ImportError:
        info["numpy"] = None
    info["git_commit"] = git_commit()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    info["src_sha256"] = digest.hexdigest()
    return info


def git_commit():
    """HEAD of the checkout when it is a git work tree (read from .git, no git process)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "bmkit" / "cli.py").is_file():
        print(f"error: no bmkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    try:
        r = measure(args)
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    lat_ms = [1e3 * x for x in r["latencies_s"]]
    tail_ms, tail_pct, n = tail(lat_ms)
    scaled_ms = host_scaled(lat_ms, r["probes_s"])
    raw = {"setup_s": statistics.median(t for t, _ in r["setups_s"]),
           "ops_per_s": 1e3 * r["decisions"] / sum(lat_ms),
           "call_p50_ms": statistics.median(lat_ms), "call_tail_ms": tail_ms}
    if args.trace:
        metrics = {name: metric(value, layer_units[name]) for name, value in r["layers"].items()
                   if name in layer_units}
        absent = sorted(set(layer_units) - set(metrics))
        for name in absent:  # every per-layer metric is printed; 0 marks a layer not reached
            metrics[name] = metric(0.0, layer_units[name])
    else:
        absent = []
        metrics = {
            "setup_s": metric(statistics.median(t * PROBE_REF_S / p for t, p in r["setups_s"]), "s"),
            "ops_per_s": metric(1e3 * r["decisions"] / sum(scaled_ms), "decisions/s"),
            "call_p50_ms": metric(statistics.median(scaled_ms), "ms"),
            "call_tail_ms": metric(tail(scaled_ms)[0], "ms"),
            "peak_rss_mb": metric(r["peak_rss_mb"], "MB"),
            "ok_frac": metric(1.0 - r["fail_frac"], "ratio"),
        }
    report = {k: v for k, v in r.items() if k not in ("latencies_s", "probes_s", "layers")}
    report.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "call_tail_percentile": tail_pct, "call_samples": n,
                   "host_scale": PROBE_REF_S / statistics.median(r["probes_s"]),
                   "unscaled": raw,
                   "absent_layers": absent, "provenance": provenance()})
    print("perfbench-report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": bool(r["correct"]), "attempted": r["commands"],
                      "failed": r["n_errors"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
