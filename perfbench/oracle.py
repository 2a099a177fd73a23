"""Checks each command's printed report against the workload's expectations.

Field-line decisions are checked against closed forms (workloads.py). Verify
decisions are checked against the acceptance facts pinned in workloads.py and,
for every other check, against the same command at e0 = 1 in nondimensional
units: the paper's claims are structural, so a decision must not change with
amplitude or units.

A disagreement that such a change explains (the same field and instant decides
as expected at another amplitude or in other units) is counted, and reported as
a scale flip. Any other disagreement, and any command that errors, makes the
run incorrect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from workloads import NONE_FOUND_NOTE, PERIOD_TOL, Command


@dataclass
class Outcome:
    """What one command returned, reduced to the decisions the oracle checks."""

    error: str | None = None
    decisions: dict = field(default_factory=dict)   # verify: check -> PASS / FAIL / SKIP
    report: dict | None = None                      # survey: the parsed report


def parse(kind: str, rc, stdout: str) -> Outcome:
    if rc not in (0, 1):
        return Outcome(error=f"exit code {rc}")
    try:
        report = json.loads(stdout)
    except ValueError:
        return Outcome(error="report is not JSON")
    if kind != "verify":
        return Outcome(report=report) if rc == 0 else Outcome(error=f"exit code {rc}")
    decisions = {}
    for c in report.get("checks", []):
        decisions[c["check"].split("@")[0]] = "PASS" if c["pass"] else "FAIL"
    for s in report.get("skipped", []):
        decisions[s["check"].split("@")[0]] = "SKIP"
    if (rc == 1) != ("FAIL" in decisions.values()):
        return Outcome(error=f"exit code {rc} disagrees with the report")
    return Outcome(decisions=decisions)


@dataclass
class Verdict:
    """Oracle results over a run."""

    decisions: int = 0            # decisions the commands printed (ops)
    checked: int = 0              # decisions the oracle checked (fail_frac base)
    errors: list = field(default_factory=list)       # (command, message)
    flips: list = field(default_factory=list)        # (command, check, got, want)
    wrong: list = field(default_factory=list)        # (command, check, got, want)
    closed: int = 0
    seeds: int = 0
    unique_reported: int = 0

    @property
    def fail_frac(self) -> float:
        return (len(self.errors) + len(self.flips) + len(self.wrong)) / max(1, self.checked)

    @property
    def correct(self) -> bool:
        return not self.errors and not self.wrong


def check_run(cmds: list[Command], outcomes: list[Outcome], rerun) -> Verdict:
    """Check every outcome; rerun(argv) -> Outcome runs a reference command untimed."""
    v = Verdict()
    for i, (cmd, out) in enumerate(zip(cmds, outcomes)):
        if out.error:
            v.errors.append((i, out.error))
            v.checked += max(1, len(cmd.pinned) or len(cmd.seeds))
        elif cmd.kind == "verify":
            v.decisions += len(out.decisions)
        else:
            try:
                _check_orbits(v, i, cmd, out.report)
            except (KeyError, TypeError, IndexError) as exc:
                v.errors.append((i, f"unexpected report layout: {exc!r}"))
    verify = [i for i, c in enumerate(cmds) if c.kind == "verify" and not outcomes[i].error]
    if verify:
        _check_verify(v, cmds, outcomes, verify, rerun)
    return v


def _check_verify(v: Verdict, cmds, outcomes, indices, rerun) -> None:
    refs: dict[tuple, Outcome] = {}

    def reference(cmd: Command) -> Outcome:
        key = tuple(cmd.ref_argv)
        if key not in refs:
            refs[key] = rerun(cmd.ref_argv)
            ref = refs[key]
            if ref.error:
                v.errors.append((f"reference {cmd.field_class}", ref.error))
            for check, want in cmd.pinned.items():
                if not ref.error and ref.decisions.get(check) != want:
                    v.wrong.append((f"reference {cmd.field_class}", check,
                                    ref.decisions.get(check), want))
        return refs[key]

    for i in indices:
        if cmds[i].argv == cmds[i].ref_argv:
            refs.setdefault(tuple(cmds[i].argv), outcomes[i])
    expected = {}
    for i in indices:
        cmd = cmds[i]
        want = dict(cmd.pinned)
        if not cmd.fully_pinned:
            for check, dec in reference(cmd).decisions.items():
                want.setdefault(check, dec)
        expected[i] = want
    for i in indices:
        cmd, got, want = cmds[i], outcomes[i].decisions, expected[i]
        for check in sorted(set(want) | set(got)):
            v.checked += 1
            g, w = got.get(check), want.get(check)
            if g == w:
                continue
            item = (i, check, g, w)
            if cmd.scaled and _explained_by_scale(cmd, check, w, cmds, outcomes, indices,
                                                  reference):
                v.flips.append(item)
            else:
                v.wrong.append(item)


def _explained_by_scale(cmd, check, want, cmds, outcomes, indices, reference) -> bool:
    """The same field and instant decides as expected at another amplitude or in other units."""
    for j in indices:
        if cmds[j].field_class == cmd.field_class and outcomes[j].decisions.get(check) == want:
            return True
    ref = reference(cmd)
    return not ref.error and ref.decisions.get(check) == want


def _check_orbits(v: Verdict, i: int, cmd: Command, report: dict) -> None:
    results = report["survey"]["results"]
    if len(results) != len(cmd.seeds):
        v.errors.append((i, f"{len(results)} results for {len(cmd.seeds)} seeds"))
        v.checked += len(cmd.seeds)
        return
    for k, (res, exp) in enumerate(zip(results, cmd.seeds)):
        v.decisions += 1
        v.checked += 1
        v.seeds += 1
        if exp.closed:
            ok = (res.get("closed") is True and tuple(res.get("winding", ())) == exp.winding
                  and abs(res["period_estimate"] - exp.period) <= PERIOD_TOL)
        else:
            ok = res.get("closed") is False and res.get("note") == NONE_FOUND_NOTE
        v.closed += bool(res.get("closed"))
        if not ok:
            v.wrong.append((i, f"seed {k}", res, exp))
    lines = {e.line for e in cmd.seeds if e.closed}
    v.checked += 1
    reps = report["survey"]["unique_orbits"]
    v.unique_reported += len(reps)
    rep_lines = [cmd.seeds[j].line for j in reps]
    if len(reps) != cmd.expect_unique or set(rep_lines) != lines:
        v.wrong.append((i, "unique_orbits", rep_lines, sorted(lines)))
