"""Command-line front end.

Subcommands: ``catalog`` (list buildable fields), ``verify`` (run structure
checks, write a JSON report), ``reeb`` (sample a Reeb field to CSV),
``trace`` (integrate field lines, write orbit CSVs), ``survey``
(closed-orbit search over a seed grid, JSON summary).  ``verify`` has one
table of check runners per target kind; the tables alone name, order and
select its checks.

Exit codes: 0 all requested checks passed (or informational command),
1 at least one check failed, 2 configuration/usage error.  Human-readable
summaries go to stderr; stdout stays silent unless --stdout-json.
Reports use the "bmk-report/1" schema and are byte-deterministic for a
fixed config when --no-meta strips versions and timings.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .catalog import (CATALOG, BeltramiForm, MaxwellFieldSet, NONDIMENSIONAL,
                      SI, build_catalog_field)
from .errors import BmkitError, ConfigError, DegenerateInstantError, require_storable
from .metrics import hodge_star
from .orbits import MIN_STEPS, closed_orbit_survey, write_orbit_csv, write_vector_field_csv
from .reeb import field_line_generator, reeb_closed_form_beltrami, reeb_for_maxwell
from .verify import (Batch, SampleGrid, _amplitude_needs, beltrami_residual,
                     conservation_along, constitutive_residuals, contact_margin,
                     maxwell_residuals, parallel_check, shs_check, symplectic_margin)

SCHEMA = "bmk-report/1"


# -- field spec micro-syntax: name{key=value,...} ------------------------------


def parse_field_spec(text: str):
    """Parse ``name{key=value,...}`` with nested specs; returns (name, params)."""
    text = text.strip()
    spec, pos = _parse_spec(text, 0)
    if pos != len(text):
        raise ConfigError(f"trailing characters in field spec: {text[pos:]!r}")
    return spec


def _parse_word(text, pos):
    start = pos
    while pos < len(text) and (text[pos].isalnum() or text[pos] in "_.+-"):
        pos += 1
    if start == pos:
        raise ConfigError(f"expected a name at position {pos} of {text!r}")
    return text[start:pos], pos


def _parse_spec(text, pos):
    name, pos = _parse_word(text, pos)
    params = {}
    if pos < len(text) and text[pos] == "{":
        pos += 1
        while True:
            if pos >= len(text):
                raise ConfigError(f"unterminated '{{' in field spec {text!r}")
            if text[pos] == "}":
                pos += 1
                break
            key, pos = _parse_word(text, pos)
            if pos >= len(text) or text[pos] != "=":
                raise ConfigError(f"expected '=' after {key!r} in {text!r}")
            pos += 1
            word, after = _parse_word(text, pos)
            if after < len(text) and text[after] == "{":
                value, pos = _parse_spec(text, pos)
            else:
                value, pos = _coerce_value(word), after
            params[key] = value
            if pos < len(text) and text[pos] == ",":
                pos += 1
    return (name, params), pos


def _coerce_value(word: str):
    try:
        return int(word)
    except ValueError:
        pass
    try:
        return float(word)
    except ValueError:
        pass
    return word


def build_field(spec_text: str, constants):
    name, params = parse_field_spec(spec_text)
    return build_catalog_field(name, params, constants)


def _build_target(args):
    """The --field target under the --constants preset."""
    return build_field(args.field, SI if args.constants == "si" else NONDIMENSIONAL)


# -- verify orchestration --------------------------------------------------------


# One table per target kind, check name -> runner of its check for the command's batch,
# in report order.  Runners look their verifier up by name at call time, so wrappers
# installed on this module's globals see every call.  Beltrami forms, and a Maxwell base
# form: (v, grid).
BELTRAMI_CHECKS = {
    "beltrami": lambda v, grid: beltrami_residual(
        v.form, v.k_expected, v.metric, grid, deferred=True),
    "contact": lambda v, grid: contact_margin(v.form, grid, deferred=True),
    "shs": lambda v, grid: shs_check(hodge_star(v.metric, v.form), v.form, grid, deferred=True),
}
# Maxwell window checks, run once on the spacetime grid: (M, grid4).
WINDOW_CHECKS = {
    "maxwell": lambda M, grid4: maxwell_residuals(M, grid4, deferred=True),
    "constitutive": lambda M, grid4: constitutive_residuals(M, grid4, deferred=True),
    "parallel": lambda M, grid4: parallel_check(M, grid4, deferred=True),
    "symplectic_f0": lambda M, grid4: symplectic_margin(
        M.F0, grid4, companion=(M.B, M.e), label="F0", deferred=True),
    "symplectic_f1": lambda M, grid4: symplectic_margin(
        M.F1, grid4, companion=(M.D, M.h), label="F1", deferred=True),
}
# Maxwell slice checks, run per instant on its slice sl: (M, sl, grid3, amp), with amp the
# needs of the window amplitudes, which tell a degenerate instant from a small field.
SLICE_CHECKS = {
    "contact_e": lambda M, sl, grid3, amp: _scaled(amp, lambda a: contact_margin(
        sl.e, grid3, zero_scale=a["e"], deferred=True)),
    "contact_h": lambda M, sl, grid3, amp: _scaled(amp, lambda a: contact_margin(
        sl.h, grid3, zero_scale=a["h"], deferred=True)),
    "shs_be": lambda M, sl, grid3, amp: _scaled(amp, lambda a: shs_check(
        sl.B, sl.e, grid3, zero_scales=(a["B"], a["e"]), deferred=True)),
    "shs_dh": lambda M, sl, grid3, amp: _scaled(amp, lambda a: shs_check(
        sl.D, sl.h, grid3, zero_scales=(a["D"], a["h"]), deferred=True)),
    "conservation_y0": lambda M, sl, grid3, amp: _along_reeb(
        M, "Y0", sl, grid3, [sl.e, sl.B, *sl.energy_forms()], ["e", "B", "E_e", "E_h"]),
    "conservation_y1": lambda M, sl, grid3, amp: _along_reeb(
        M, "Y1", sl, grid3, [sl.h, sl.D, *sl.energy_forms()], ["h", "D", "E_e", "E_h"]),
}


def _scaled(amp, check_of):
    """The check check_of(amplitudes), made once the amplitude needs amp are evaluated."""
    yield list(amp.values())
    return (yield from check_of({name: need.result[0] for name, need in amp.items()}))


def _along_reeb(M, which, sl, grid3, forms, names):
    """conservation_along the Reeb field `which` of the slice, once its degeneracy test passed."""
    rb = yield from reeb_for_maxwell(M, which, sl.x0, grid3, deferred=True)
    return (yield from conservation_along(rb.Y, forms, grid3, names, deferred=True))


def _parse_counts(text: str) -> list[int]:
    """The comma-separated counts of a grid flag; SampleGrid.regular checks them."""
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"bad grid spec {text!r}")


def _applicable_checks(target) -> tuple[str, ...]:
    if isinstance(target, BeltramiForm):
        return tuple(BELTRAMI_CHECKS)
    return (*WINDOW_CHECKS, *SLICE_CHECKS) + (("beltrami",) if target.base is not None else ())


def _run_verify(args) -> int:
    target = _build_target(args)
    applicable = _applicable_checks(target)
    requested = applicable if args.checks == ["all"] else tuple(args.checks)
    for c in requested:
        if c not in applicable:
            raise ConfigError(
                f"check {c!r} not applicable to {args.field!r}; "
                f"choose from {', '.join(applicable)} or 'all'")
    x0_list = [float(x) for x in args.x0] or [0.25 * math.pi]
    labels = [f"x0={x0:.6g}" for x0 in x0_list]
    if len(set(labels)) < len(labels):
        raise ConfigError(f"--x0 values {x0_list} share a report label x0=%.6g")
    if isinstance(target, BeltramiForm):
        grid = SampleGrid.regular(target.chart, _parse_counts(args.grid))
        runs = [(None, run(target, grid)) for c, run in BELTRAMI_CHECKS.items() if c in requested]
    else:
        runs = _maxwell_runs(target, requested, x0_list, args)
    batch, reports, skipped = Batch(), [], []
    for (name, _), r in zip(runs, batch.run([check for _, check in runs])):
        if isinstance(r, DegenerateInstantError):
            if not args.allow_degenerate:
                raise ConfigError(f"{name}: {r} (pass --allow-degenerate to skip)")
            skipped.append({"check": name, "reason": str(r)})
        elif isinstance(r, BmkitError):
            raise r
        else:
            r.check = name or r.check
            reports.append(r)

    failed = [r for r in reports if not r.passed]
    report = {
        "schema": SCHEMA,
        "command": "verify",
        "config": {
            "field": args.field,
            "x0": x0_list,
            "grid": args.grid,
            "tgrid": args.tgrid,
            "t_window": args.t_window,
            "checks": list(requested),
            "constants": args.constants,
        },
        "checks": [r.to_json_dict() for r in reports],
        "skipped": skipped,
        "summary": {
            "n_checks": len(reports),
            "n_passed": len(reports) - len(failed),
            "n_failed": len(failed),
            "n_skipped": len(skipped),
        },
    }
    _emit(args, report, evaluation=batch.counts)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.check}: max_residual={r.max_residual:.3e}"
              + (f" min_margin={r.min_margin:.3e}" if r.min_margin is not None else ""),
              file=sys.stderr)
    for s in skipped:
        print(f"[SKIP] {s['check']}: {s['reason']}", file=sys.stderr)
    return 1 if failed else 0


def _maxwell_runs(M: MaxwellFieldSet, requested, x0_list, args) -> list:
    """(report name or None, check) for the window, base form and slice checks requested."""
    grid3 = SampleGrid.regular(M.chart3, _parse_counts(args.grid))
    w = args.t_window
    require_storable(args.tgrid * len(x0_list) * grid3.n * M.chart4.dim,
                     f"window of {args.tgrid} instants per x0")
    # one time sample per instant is the instant itself
    t_values = np.unique(np.concatenate(
        [np.linspace(x0 - w, x0 + w, args.tgrid) if args.tgrid > 1 else [x0]
         for x0 in x0_list]))
    grid4 = grid3.with_time(M.chart4, t_values)
    amp = _amplitude_needs(M, grid4.points)   # evaluated only if a slice check runs
    runs = [(None, run(M, grid4)) for c, run in WINDOW_CHECKS.items() if c in requested]
    if "beltrami" in requested:
        runs.append((None, BELTRAMI_CHECKS["beltrami"](M.base, grid3)))
    slice_runs = [(c, run) for c, run in SLICE_CHECKS.items() if c in requested]
    for x0 in x0_list if slice_runs else ():
        sl = M.at_time(x0)
        runs += [(f"{c}@x0={x0:.6g}", run(M, sl, grid3, amp)) for c, run in slice_runs]
    return runs


# -- other commands ----------------------------------------------------------------


def _run_catalog(args) -> int:
    entries = []
    for name in sorted(CATALOG):
        e = CATALOG[name]
        entries.append({
            "name": e.name,
            "kind": e.kind,
            "identity": e.identity,
            "summary": e.summary,
            "params": {p: {"type": t, "default": d} for p, (t, d) in e.params.items()},
        })
    if args.json:
        print(json.dumps({"schema": SCHEMA, "catalog": entries},
                         indent=2, sort_keys=True))
    else:
        for e in entries:
            params = ", ".join(f"{p}={spec['default']}" for p, spec in e["params"].items())
            print(f"{e['name']}({params})")
            print(f"    {e['summary']}")
            print(f"    identity: {e['identity']}")
    return 0


def _parse_seeds(args, chart):
    if args.seeds:
        rows = []
        for block in args.seeds.split(";"):
            block = block.strip()
            if not block:
                continue
            try:
                row = [float(x) for x in block.split(",")]
            except ValueError:
                raise ConfigError(f"malformed seed {block!r}")
            if not all(map(math.isfinite, row)):
                raise ConfigError(f"seed {block!r} has a non-finite coordinate")
            if len(row) != chart.dim:
                raise ConfigError(
                    f"seed {block!r} has {len(row)} coordinates, chart needs {chart.dim}")
            rows.append(row)
        if not rows:
            raise ConfigError("empty seed list")
        return np.array(rows)
    return SampleGrid.regular(chart, _parse_counts(args.seed_grid)).points


def _field_lines(args):
    """Field-line generator, seeds and report config shared by trace and survey."""
    Y = field_line_generator(_build_target(args), args.which, args.x0)
    config = {"field": args.field, "which": args.which, "x0": args.x0,
              "step": args.step, "s_max": args.s_max, "tol": args.tol}
    return Y, _parse_seeds(args, Y.chart), config


def _run_trace(args) -> int:
    Y, seeds, config = _field_lines(args)
    survey = closed_orbit_survey(Y, seeds, args.step, args.s_max, args.tol)
    results = []
    for i, (trace, closure) in enumerate(zip(survey.traces, survey.results)):
        if args.out_prefix:
            write_orbit_csv(trace, f"{args.out_prefix}_{i:03d}.csv")
        results.append({
            "seed": [float(x) for x in trace.seed],
            "status": trace.status,
            "closure": closure.to_json_dict() if trace.n_samples >= MIN_STEPS else None,
        })
    report = {
        "schema": SCHEMA,
        "command": "trace",
        "config": config,
        "orbits": results,
        "summary": {"n_seeds": len(results), "closed_count": survey.n_closed},
    }
    _emit(args, report, integration=survey.integration_counts)
    print(f"traced {len(results)} field lines; {survey.n_closed} closed "
          f"(tol={args.tol:g}, s_max={args.s_max:g})", file=sys.stderr)
    return 0


def _run_survey(args) -> int:
    Y, seeds, config = _field_lines(args)
    survey = closed_orbit_survey(Y, seeds, args.step, args.s_max, args.tol)
    report = {
        "schema": SCHEMA,
        "command": "survey",
        "config": config,
        "survey": survey.to_json_dict(),
    }
    _emit(args, report, dedup=survey.dedup_counts, integration=survey.integration_counts)
    print(f"survey: {survey.n_closed}/{len(survey.results)} seeds closed, "
          f"{len(survey.unique_orbits)} distinct orbits", file=sys.stderr)
    return 0


def _run_reeb(args) -> int:
    target = _build_target(args)
    if isinstance(target, BeltramiForm):
        variant = "normalized" if args.which in ("y", "y0", "y1") else "unnormalized"
        grid = SampleGrid.regular(target.chart, _parse_counts(args.grid))
        rb = reeb_closed_form_beltrami(target, variant, grid)
    else:
        which = {"y0": "Y0", "y1": "Y1"}.get(args.which)
        if which is None:
            raise ConfigError("for Maxwell fields --which must be y0 or y1")
        grid = SampleGrid.regular(target.chart3, _parse_counts(args.grid))
        rb = reeb_for_maxwell(target, which, args.x0, grid)
    write_vector_field_csv(rb.Y, grid.points, args.out)
    r_omega, r_lam = rb.normalization_residuals
    print(f"wrote {args.out}; residuals: |i_Y Omega| <= {r_omega:.3e}, "
          f"|i_Y lambda - 1| <= {r_lam:.3e}", file=sys.stderr)
    return 0


# -- entry point ---------------------------------------------------------------------


def _emit(args, report: dict, **meta) -> None:
    """Write the report; unless --no-meta, with versions, timing and the given meta entries."""
    if not getattr(args, "no_meta", False):
        report["meta"] = {
            "bmkit": __version__,
            "numpy": np.__version__,
            "elapsed_s": round(time.time() - args._t0, 3),
            **meta,
        }
    text = json.dumps(report, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if getattr(args, "stdout_json", False):
        print(text)


def _checked(convert, ok, what):
    """argparse type: convert(text) if it is finite and ok, else a usage error (exit 2)."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and ok(value)):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


_FINITE = _checked(float, math.isfinite, "a finite number")
_POSITIVE = _checked(float, lambda v: v > 0, "a finite positive number")
_NONNEGATIVE = _checked(float, lambda v: v >= 0, "a finite non-negative number")
_COUNT = _checked(int, lambda v: v >= 1, "an integer >= 1")


def _add_common(p, out_default=None):
    p.add_argument("--constants", choices=("nondim", "si"), default="nondim",
                   help="physical constants preset (default nondimensional)")
    p.add_argument("--out", default=out_default, help="output file path")
    p.add_argument("--stdout-json", action="store_true",
                   help="print the JSON report to stdout")
    p.add_argument("--no-meta", action="store_true",
                   help="omit versions/timing for byte-deterministic reports")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The bmk parser, built on first use and shared by later main calls."""
    ap = argparse.ArgumentParser(
        prog="bmk",
        description="Beltrami-Maxwell exterior-calculus toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list catalog fields")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_run_catalog)

    p = sub.add_parser("verify", help="run structure checks")
    p.add_argument("--field", required=True, help="catalog spec, e.g. "
                   "beltrami_maxwell{v=t3_mode{n=1,c=1},e0=1}")
    p.add_argument("--x0", action="append", default=[], type=_FINITE,
                   help="instant(s) for slice checks (default pi/4)")
    p.add_argument("--grid", default="8", help="spatial grid counts, e.g. 8 or 8,8,8")
    p.add_argument("--tgrid", type=_COUNT, default=6, help="time samples per instant")
    p.add_argument("--t-window", type=_NONNEGATIVE, default=0.35,
                   help="half-width of the time window around each instant")
    p.add_argument("--checks", nargs="+", default=["all"],
                   help="subset of: " + ", ".join(
                       {**WINDOW_CHECKS, **SLICE_CHECKS, **BELTRAMI_CHECKS}) + " (or 'all')")
    p.add_argument("--allow-degenerate", action="store_true",
                   help="skip (rather than reject) checks at degenerate instants")
    _add_common(p)
    p.set_defaults(func=_run_verify)

    p = sub.add_parser("reeb", help="sample a Reeb field to CSV")
    p.add_argument("--field", required=True)
    p.add_argument("--which", choices=("y0", "y1", "y", "z"), default="y0",
                   help="y0/y1 for Maxwell sets; y (normalized) or z for Beltrami forms")
    p.add_argument("--x0", type=_FINITE, default=0.0)
    p.add_argument("--grid", default="6")
    _add_common(p, out_default="reeb.csv")
    p.set_defaults(func=_run_reeb)

    for cmd, fn, helptext in (("trace", _run_trace, "trace field lines, write orbit CSVs"),
                              ("survey", _run_survey, "closed-orbit survey over seeds")):
        p = sub.add_parser(cmd, help=helptext)
        p.add_argument("--field", required=True)
        p.add_argument("--which", choices=("e", "h"), default="e")
        p.add_argument("--x0", type=_FINITE, default=0.0)
        p.add_argument("--seeds", default="",
                       help="semicolon-separated points, e.g. '0,0,0;1,2,3'")
        p.add_argument("--seed-grid", default="3",
                       help="regular seed lattice counts (used when --seeds is empty)")
        p.add_argument("--step", type=_POSITIVE, default=1e-2)
        p.add_argument("--s-max", type=_POSITIVE, default=50.0)
        p.add_argument("--tol", type=_POSITIVE, default=1e-5)
        if cmd == "trace":
            p.add_argument("--out-prefix", default="",
                           help="write one CSV per seed: PREFIX_###.csv")
        _add_common(p)
        p.set_defaults(func=fn)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    args._t0 = time.time()
    try:
        return args.func(args)
    except BmkitError as exc:
        kind = "degenerate instant: " if isinstance(exc, DegenerateInstantError) else ""
        print(f"error: {kind}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
