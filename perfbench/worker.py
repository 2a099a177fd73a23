"""One benchmark process: import bmkit, generate the workload, run it, check it.

run.py starts a fresh one per measurement:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode setup|measure|trace

The worker prints READY once imports and input generation are done; run.py
times set-up up to that line. In setup mode it then exits. Otherwise it issues
whole blocks of the workload's `bmk` commands in-process through
``bmkit.cli.main`` for about S seconds, checks every report with the oracle,
and prints one JSON line of results. In trace mode each command also runs once
more with spans recorded; the worker then runs the per-layer probes and adds
the per-layer metrics.

Every mode also times the host probe (host_probe), a fixed kernel that uses no
bmkit code: in setup mode after READY, otherwise after each command, outside
the command's timing. run.py divides the program's times by the probe's times
nearest to them, so that the end-to-end metrics follow the program and not the
shared host's speed, which drifts by a third over seconds to minutes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPAN_DIR = ROOT / ".bench_build" / "perfbench"


@functools.lru_cache(maxsize=None)
def _probe_inputs():
    import numpy as np
    return np.random.default_rng(0).uniform(0.0, 6.0, (10_000, 4)), np.array([[0.3, 0.7, 1.1]])


def host_probe() -> float:
    """Seconds one fixed reference kernel takes; it calls no bmkit code.

    Its mix follows the workloads': numpy on 10^4 x 4 arrays, numpy on one
    point, and a plain interpreter loop.
    """
    import numpy as np
    big, one = _probe_inputs()
    t0 = time.perf_counter()
    for _ in range(6):
        (np.sin(big) * np.cos(big) + big ** 2).sum(axis=1)
    y = one
    for _ in range(500):
        y = np.sin(y) * 0.5 + np.cos(y[:, ::-1])
    acc = 0
    for k in range(60_000):
        acc += k * k
    return time.perf_counter() - t0


def invoke(argv: list[str]):
    """Run one `bmk` command in-process; returns (exit code or error text, stdout)."""
    main = sys.modules["bmkit.cli"].main  # looked up per call, so the tracer's wrapper is used
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crashing command is counted as failed; the run goes on
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def run_timed(cmds, seconds: float, tracer=None):
    """Issue whole blocks of commands, stopping at the block boundary nearest `seconds`.

    Untraced runs issue at least two blocks: the Bessel commands that set
    call_tail_ms on verify-sweep are 12 of a block's 52, and two blocks put the
    11th largest latency mid-way in their cluster. Traced runs, which report no
    tail and run every command twice, issue at least one. The boundary is
    chosen from the mean block time so far, so a run lasts `seconds` give or
    take half a block.

    With a tracer, each command also runs a second time with the tracer
    installed, alternately before and after its untraced run; the paired times
    give the tracing overhead even while the machine's speed drifts.
    """
    latencies, outputs, traced, probes = [], [], [], []
    min_blocks = 1 if tracer is not None else 2
    start = time.perf_counter()
    i = blocks = 0
    while True:
        cmd = cmds[i % len(cmds)]
        if i and cmd.block != cmds[(i - 1) % len(cmds)].block:
            blocks += 1
            elapsed = time.perf_counter() - start
            if blocks >= min_blocks and elapsed + 0.5 * elapsed / blocks >= seconds:
                break
        if tracer is not None and i % 2:
            traced.append(_traced_call(tracer, i, cmd))
        t0 = time.perf_counter()
        rc, out = invoke(cmd.argv)
        latencies.append(time.perf_counter() - t0)
        outputs.append((rc, out))
        if tracer is not None and not i % 2:
            traced.append(_traced_call(tracer, i, cmd))
        probes.append(host_probe())
        i += 1
    wall = time.perf_counter() - start - sum(probes)
    return wall, latencies, outputs, traced, probes


def _traced_call(tracer, i: int, cmd):
    tracer.command = i
    tracer.install(sys.modules)
    try:
        t0 = time.perf_counter()
        rc, out = invoke(cmd.argv)
        return time.perf_counter() - t0, (rc, out)
    finally:
        tracer.uninstall()


# -- per-layer probes (trace mode only, after the tracer is removed) -------------------


def _median_ns(fn, reps: int = 15, inner: int = 20) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter_ns() - t0) / inner)
    return statistics.median(times)


def _count_scalar_calls(ScalarField, fn) -> int:
    original = ScalarField.__call__
    calls = 0

    def counting(self, pts):
        nonlocal calls
        calls += 1
        return original(self, pts)

    ScalarField.__call__ = counting
    try:
        fn()
    finally:
        ScalarField.__call__ = original
    return calls


def probe_orbit_fields(cmds, width: int) -> dict:
    """Field-line generators of the first commands: 1-point and 10^4-point evaluation."""
    import numpy as np
    from bmkit.catalog import NONDIMENSIONAL
    from bmkit.cli import build_field
    from bmkit.reeb import field_line_generator
    from bmkit.scalars import ScalarField

    rng = np.random.default_rng(0)
    specs = list(dict.fromkeys(c.argv[2] for c in cmds[:4]))
    one, many, nodes, wrap = [], [], [], []
    for spec in specs:
        Z = field_line_generator(build_field(spec, NONDIMENSIONAL), "e", 0.0)
        pt = Z.chart.wrap(np.array([[0.3, 0.7, 1.1]]))
        cloud = rng.uniform(0.0, 2 * math.pi, (10_000, 3))
        batch = rng.uniform(-10.0, 10.0, (width, 3))
        one.append(_median_ns(lambda: Z.evaluate(pt)) / 1e3)
        many.append(_median_ns(lambda: Z.evaluate(cloud), reps=5, inner=1) / len(cloud))
        nodes.append(_count_scalar_calls(ScalarField, lambda: Z.evaluate(pt)))
        wrap.append(_median_ns(lambda: Z.chart.wrap(batch)) / 1e3)
    return {"scalars.eval_1pt_us": statistics.median(one),
            "scalars.eval_ns_per_pt": statistics.median(many),
            "scalars.nodes_per_eval": statistics.median(nodes),
            "charts.wrap_us": statistics.median(wrap)}


def probe_verify_fields(cmds) -> dict:
    """Each field family of the run: F0 coefficients and Bessel leaves on its 10^4-point grid."""
    import numpy as np
    from bmkit.bessel import bessel_j
    from bmkit.catalog import NONDIMENSIONAL, SI
    from bmkit.cli import build_field, parse_field_spec
    from bmkit.verify import SampleGrid
    from workloads import GRID, T_WINDOW, TGRID

    table_ns = table_pts = bessel_ns = bessel_pts = 0.0
    wrap = []
    seen = set()
    for cmd in cmds:
        family = cmd.field_class.split("@")[0]
        if family in seen:
            continue
        seen.add(family)
        spec, x0 = cmd.argv[2], float(cmd.argv[4])
        M = build_field(spec, SI if "si" in cmd.argv else NONDIMENSIONAL)
        grid3 = SampleGrid.regular(M.chart3, GRID)
        pts = grid3.with_time(M.chart4, np.linspace(x0 - T_WINDOW, x0 + T_WINDOW, TGRID)).points
        table_ns += _median_ns(lambda: M.F0.coefficient_table(pts), reps=5, inner=1)
        table_pts += len(pts)
        wrap.append(_median_ns(lambda: M.chart3.wrap(grid3.points)) / 1e3)
        if cmd.bessel:
            k_c = float(parse_field_spec(spec)[1]["v"][1]["k_c"])
            z = k_c * pts[:, 1]
            bessel_ns += sum(_median_ns(lambda: bessel_j(order, z), reps=5, inner=2)
                             for order in (0, 1))
            bessel_pts += 2 * len(z)
    out = {"scalars.eval_ns_per_pt": table_ns / table_pts,
           "charts.wrap_us": statistics.median(wrap)}
    if bessel_pts:
        out["bessel.ns_per_pt"] = bessel_ns / bessel_pts
    return out


# -- main -------------------------------------------------------------------------------


def summarize(workload: str, cmds, verdict) -> dict:
    out = {"decisions": verdict.decisions, "checked": verdict.checked,
           "fail_frac": verdict.fail_frac, "correct": verdict.correct,
           "n_errors": len(verdict.errors), "errors": [list(map(str, e)) for e in verdict.errors[:5]],
           "n_wrong": len(verdict.wrong), "wrong": [list(map(str, w)) for w in verdict.wrong[:5]],
           "n_flips": len(verdict.flips)}
    flips: dict[str, int] = {}
    for _, check, _, _ in verdict.flips:
        flips[check] = flips.get(check, 0) + 1
    out["flips_by_check"] = flips
    if workload == "verify-sweep":
        out["bessel_share"] = sum(c.bessel for c in cmds) / len(cmds)
    elif verdict.seeds:
        out["orbits.closed_share"] = verdict.closed / verdict.seeds
        if verdict.closed:
            out["orbits.dup_share"] = 1.0 - verdict.unique_reported / verdict.closed
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import bmkit.cli  # noqa: F401  (the program under test)
    import oracle
    from workloads import WORKLOADS
    cmds = WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.mode == "setup":
        print(json.dumps({"probe_s": statistics.median(host_probe() for _ in range(5))}))
        return 0

    invoke(cmds[-1].argv)  # warm-up, untimed; the last command is never reached in a run
    tracer = None
    if args.mode == "trace":
        from tracer import SpanTable, Tracer, layer_metrics
        tracer = Tracer()
    wall, latencies, outputs, traced, probes = run_timed(cmds, args.seconds, tracer)
    ran = [cmds[i % len(cmds)] for i in range(len(outputs))]
    outcomes = [oracle.parse(c.kind, rc, text) for c, (rc, text) in zip(ran, outputs)]
    verdict = oracle.check_run(ran, outcomes, lambda a: oracle.parse("verify", *invoke(a)))
    result = {"wall_s": wall, "latencies_s": latencies, "commands": len(ran),
              "probes_s": probes}
    result.update(summarize(args.workload, ran, verdict))

    if tracer is not None:
        spans = SpanTable(tracer)
        layers = layer_metrics(spans, len(ran))
        if args.workload == "verify-sweep":
            layers.update(probe_verify_fields(ran))
        else:
            layers.update(probe_orbit_fields(ran, len(ran[0].seeds)))
        for key in ("orbits.closed_share", "orbits.dup_share"):
            if key in result:
                layers[key] = result[key]
        layers["trace.overhead_frac"] = sum(t for t, _ in traced) / sum(latencies) - 1.0
        SPAN_DIR.mkdir(parents=True, exist_ok=True)
        span_file = SPAN_DIR / f"spans-{args.workload}-{args.seed}.npz"
        tracer.save(span_file)
        identical = [out for _, out in traced] == outputs
        result.update({
            "layers": layers, "spans": len(spans.dur), "span_file": str(span_file.relative_to(ROOT)),
            "nest_violations": spans.nest_violations, "negative_self": spans.negative_self,
            "traced_outputs_identical": identical,
        })
        result["correct"] = (result["correct"] and identical
                             and spans.nest_violations == 0 and spans.negative_self == 0)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
