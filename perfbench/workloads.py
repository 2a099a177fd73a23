"""Seeded `bmk` commands for the two workloads, and what an analytic oracle expects of them.

A generator turns a workload seed into a list of commands. Each command is the
argument vector handed to ``bmkit.cli.main`` plus the oracle's expectation; the
program sees only the argument vector.

Field lines of sharp(e) for ``beltrami_maxwell{v=t3_mode{n,c}}`` at x0 = 0 are
straight lines in the planes x3 = const with direction (cos n x3, sin n x3, 0)
and speed e0 c. A line is closed iff tan(n x3) = p/q; it then winds (s q, s p, 0)
times around the torus (s is the orientation) with period 2 pi sqrt(p^2 + q^2) / (e0 c).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

TWO_PI = 2.0 * math.pi
N_COMMANDS = 400  # more than a run issues today; the loop wraps around if it runs out

# verify-sweep: 10^3 spatial points x 10 instants = the 10^4-point grids of criterion 3
GRID, TGRID, T_WINDOW = 10, 10, 0.35

# field-line workloads
NONE_FOUND_NOTE = "none found within budget"
TOL = 1e-4          # --tol of every survey command
PERIOD_TOL = 1e-4   # criterion 7's period tolerance
SURVEY_STEP = 0.04  # spatial step; --step is this over the speed c


@dataclass
class Command:
    """One `bmk` invocation and what the oracle expects of its output."""

    kind: str                 # "verify" | "survey"
    argv: list[str]
    block: int                # the loop only stops between blocks
    # verify
    field_class: str = ""     # field and instant, without amplitude or units
    pinned: dict = field(default_factory=dict)   # check -> PASS / FAIL / SKIP
    fully_pinned: bool = False                   # else unpinned checks follow ref_argv
    ref_argv: list[str] | None = None            # same field and x0, e0 = 1, nondim
    scaled: bool = False      # differs from ref_argv in amplitude or units
    bessel: bool = False
    # survey: one entry per seed, in seed order
    seeds: list = field(default_factory=list)
    expect_unique: int | None = None


@dataclass(frozen=True)
class SeedExpectation:
    line: str                 # identifies the field line the seed lies on
    closed: bool
    winding: tuple[int, int, int] | None = None
    period: float | None = None
    approach_bound: float | None = None   # open lines: no return comes closer than this


# -- verify-sweep ----------------------------------------------------------------

# (v spec, |k|): nonsingular Beltrami forms, so beltrami_maxwell{v} has
# e = e0 cos(k x0) v and h proportional to sin(k x0) v.
BELTRAMI_BASES = (
    ("t3_mode{n=1,c=1}", 1.0),
    ("t3_mode{n=2,c=1}", 2.0),
    ("t3_mode{n=3,c=1}", 3.0),
    ("abc_flow{A=2,B=1,C=0.5}", 1.0),
)
BESSEL_BASES = (
    ("solid_torus_mode{k_c=2,beta=1,sign=minus}", math.sqrt(5.0)),
    ("solid_torus_mode{k_c=2,beta=1,sign=plus}", math.sqrt(5.0)),
)
# k x0: criterion 4's generic instant, its two degenerate instants, and one more
# generic instant. Bessel fields, which cost ten times more per command, take
# only the generic ones, so that their latencies form one cluster.
BM_THETAS = (0.25 * math.pi, 0.0, 0.5 * math.pi, 0.375 * math.pi)
BESSEL_THETAS = (0.25 * math.pi, 0.375 * math.pi)

OTHER_X0 = (0.25 * math.pi, 0.0, 0.5 * math.pi, 1.0)
# The two cheapest fields also run at four more instants. Without them the
# median command falls among the t3 fields at generic instants, whose
# latencies are sparse, and call_p50_ms jumps between runs by which of them it
# lands on; with them it falls inside the dense cluster of the other t3 and
# non-Beltrami commands.
EXTRA_X0 = (0.5, 2.0, 0.75 * math.pi, math.pi)
# (spec with {a} for the amplitude, or without one; acceptance facts that pin
# decisions; instants)
OTHER_FIELDS = (
    ("traveling_wave", {"maxwell": "PASS", "symplectic_F0": "FAIL"},      # criteria 3, 9
     OTHER_X0 + EXTRA_X0),
    ("constant_field{{e0={a},h0={a}}}", {"maxwell": "PASS", "contact_e": "FAIL"},  # 3, 9
     OTHER_X0 + EXTRA_X0),
    ("parallel_nonbeltrami{{e0={a}}}", {"maxwell": "PASS"}, OTHER_X0),     # 3
    ("beltrami_nonparallel", {"maxwell": "PASS"}, OTHER_X0),               # 3
)
E0_STRATA = 8  # log10 e0 in [-8, 8], two decades per stratum
UNITS = ("nondim", "si")


def beltrami_maxwell_table(theta: float) -> dict:
    """Decisions of `bmk verify --checks all` on beltrami_maxwell{v} at k x0 = theta.

    Criterion 4's structure table: the identities hold; e (h) vanishes when
    cos (sin) of k x0 does, which fails the contact and SHS checks that use it and
    makes its Reeb field undefined (skipped with --allow-degenerate). The symplectic
    checks pass because no instant of the time window is degenerate (checked below).
    """
    e_zero = theta == 0.5 * math.pi
    h_zero = theta == 0.0
    ok = lambda bad: "FAIL" if bad else "PASS"  # noqa: E731
    return {
        "maxwell": "PASS", "constitutive": "PASS", "parallel": "PASS",
        "symplectic_F0": "PASS", "symplectic_F1": "PASS", "beltrami": "PASS",
        "contact_e": ok(e_zero), "contact_h": ok(h_zero),
        "shs_be": ok(e_zero or h_zero), "shs_dh": ok(e_zero or h_zero),
        "conservation_y0": "SKIP" if e_zero else "PASS",
        "conservation_y1": "SKIP" if h_zero else "PASS",
    }


def _window_is_nondegenerate(k: float, x0: float) -> bool:
    """True when F ^ F ~ sin(2 k t) stays clear of 0 at every sampled instant t."""
    ts = [x0 - T_WINDOW + 2 * T_WINDOW * i / (TGRID - 1) for i in range(TGRID)]
    return min(abs(math.sin(2 * k * t)) for t in ts) > 1e-3


def _verify_argv(spec: str, x0: float, constants: str) -> list[str]:
    return ["verify", "--field", spec, "--x0", repr(x0), "--grid", str(GRID),
            "--tgrid", str(TGRID), "--t-window", repr(T_WINDOW), "--checks", "all",
            "--allow-degenerate", "--no-meta", "--constants", constants, "--stdout-json"]


def verify_sweep(seed: int, n: int = N_COMMANDS) -> list[Command]:
    """Blocks of 52 commands that each hold the same mix, in a seeded order.

    A block runs every Beltrami-Maxwell field at every instant, every other
    field at each of its instants, and each Bessel field three times at each
    generic instant: the Bessel commands are the slowest, and with 12 of 52
    the tail latency (the 11th largest of a two-block run) falls mid-way in
    their cluster. Amplitude strata and units rotate over the commands from
    block to block. Each field at each instant takes the other units in the
    next block, so any two consecutive blocks hold the same (field, instant,
    units) commands whatever the seed; units change a command's cost more
    than the amplitude does. Bessel commands take
    nondimensional units only: in SI units some of them skip their Reeb checks
    or take other paths and run faster, which would split the cluster of
    slowest commands that sets call_tail_ms. The seed sets the starting phase
    of the rotation, the amplitudes within their strata and the order of
    commands in each block.
    """
    rng = random.Random(f"verify-sweep/{seed}")
    turn = rng.randrange(2 * E0_STRATA)
    cmds: list[Command] = []
    while len(cmds) < n:
        todo = []
        for j, (base, theta) in enumerate((b, t) for b in BELTRAMI_BASES for t in BM_THETAS):
            todo.append(("bm", base, theta, (j // 2 + turn) % E0_STRATA, UNITS[(j + turn) % 2]))
        for j, (other, x0) in enumerate((f[:2], x) for f in OTHER_FIELDS for x in f[2]):
            todo.append(("other", other, x0, (j // 2 + turn) % E0_STRATA, UNITS[(j + turn) % 2]))
        bessel = ((b, t) for b in BESSEL_BASES for t in BESSEL_THETAS for _ in range(3))
        for j, (base, theta) in enumerate(bessel):
            stratum = (j + turn) % E0_STRATA
            todo.append(("bessel", base, theta, stratum, "nondim"))
        block = len(cmds) // len(todo)
        for kind, what, where, stratum, units in rng.sample(todo, len(todo)):
            e0 = 10.0 ** (-8 + 2 * stratum + 2 * rng.random())
            if kind == "other":
                cmds.append(_other_command(what, where, e0, units, block))
            else:
                cmds.append(_bm_command(what, where, e0, units, block, kind == "bessel"))
        turn += 1
    return cmds[:n]


def _bm_command(base, theta: float, e0: float, units: str, block: int, bessel: bool) -> Command:
    v, k = base
    x0 = theta / k
    if not _window_is_nondegenerate(k, x0):
        raise AssertionError(f"time window of {v} at k x0 = {theta} samples a degenerate instant")
    spec = f"beltrami_maxwell{{v={v},e0={e0!r}}}"
    ref = f"beltrami_maxwell{{v={v},e0=1.0}}"
    return Command("verify", _verify_argv(spec, x0, units), block,
                   field_class=f"beltrami_maxwell{{v={v}}}@{x0!r}",
                   pinned=beltrami_maxwell_table(theta), fully_pinned=True,
                   ref_argv=_verify_argv(ref, x0, "nondim"), scaled=True, bessel=bessel)


def _other_command(other, x0: float, e0: float, units: str, block: int) -> Command:
    template, pinned = other
    has_amp = "{a}" in template
    spec = template.format(a=repr(e0)) if has_amp else template
    ref = template.format(a="1.0") if has_amp else template
    return Command("verify", _verify_argv(spec, x0, units), block,
                   field_class=f"{ref}@{x0!r}", pinned=dict(pinned),
                   ref_argv=_verify_argv(ref, x0, "nondim"),
                   scaled=has_amp or units != "nondim")


# -- field lines: survey-dup ----------------------------------------------------------


def _coprime_slopes(limit_sq: int) -> list[tuple[int, int]]:
    out = []
    for p in range(0, 8):
        for q in range(0, 8):
            if (p, q) != (0, 0) and math.gcd(p, q) == 1 and p * p + q * q <= limit_sq:
                out.append((p, q))
    return out


SURVEY_SLOPES = _coprime_slopes(13)   # up to (3, 2)
# quadratic irrationals with small partial quotients: their lines stay far from closing
IRRATIONALS = (math.sqrt(2.0), math.sqrt(3.0), 0.5 * (1 + math.sqrt(5.0)), math.sqrt(5.0),
               1 / math.sqrt(2.0), 1 / math.sqrt(3.0), math.sqrt(7.0) / 2)


def convergent_denominators(alpha: float, q_max: int) -> list[int]:
    """Denominators q_k <= q_max of the continued-fraction convergents of alpha >= 0."""
    qs, q_prev, q = [], 0, 1
    x = alpha
    for _ in range(40):
        a = math.floor(x)
        q_prev, q = q, a * q + q_prev
        if q > q_max:
            break
        if q >= 1:
            qs.append(q)
        frac = x - a
        if frac < 1e-12:
            break
        x = 1.0 / frac
    return qs


def closest_approach_bound(phi: float, length: float) -> float:
    """Lower bound on how close a straight torus line returns to its start.

    The line leaves the seed in direction (cos phi, sin phi) and runs for the given
    arc length. Near the lattice point 2 pi (a, b) it passes at distance
    2 pi |a sin phi - b cos phi|. With |cos phi| >= |sin phi| that is
    2 pi |cos phi| |a tan phi - b|, and over 1 <= |a| <= Q the smallest
    |a alpha - b| is attained at the largest convergent denominator of alpha =
    |tan phi| not above Q (best approximations of the second kind).
    """
    c, s = abs(math.cos(phi)), abs(math.sin(phi))
    big, small = max(c, s), min(c, s)
    alpha = small / big
    q_max = int(length * big / TWO_PI) + 1  # one lattice column past the end, to be safe
    qs = convergent_denominators(alpha, q_max) or [1]
    q = qs[-1]
    return TWO_PI * big * abs(q * alpha - round(q * alpha))


def _field_spec(n: int, c: float) -> str:
    return f"beltrami_maxwell{{v=t3_mode{{n={n},c={c!r}}},e0=1.0}}"


def _rational_line(rng, slopes, n, used: set, label: str):
    """A closed line: plane x3, direction s (q, p), and a start point in that plane."""
    while True:
        p, q = rng.choice(slopes)
        s = rng.choice((1, -1))
        branch = rng.randrange(n)
        key = (p, q, s, branch)
        if key not in used:
            used.add(key)
            break
    phi = math.atan2(s * p, s * q)
    x3 = ((phi + TWO_PI * branch) / n) % TWO_PI
    start = (rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
    direction = (s * q, s * p)
    return label, x3, start, direction, (p, q, s)


def _line_seed(start, direction, x3, t):
    return ((start[0] + t * direction[0]) % TWO_PI, (start[1] + t * direction[1]) % TWO_PI, x3)


def _closed_expectation(label, pqs, c) -> SeedExpectation:
    p, q, s = pqs
    return SeedExpectation(label, True, (s * q, s * p, 0), TWO_PI * math.hypot(p, q) / c)


def _irrational_seed(rng, n, length, label):
    alpha = rng.choice(IRRATIONALS)
    # direction angle phi with |tan phi| or |cot phi| = alpha, in a random quadrant
    phi = math.atan(alpha) if rng.random() < 0.5 else math.atan(1.0 / alpha)
    phi = rng.choice((phi, math.pi - phi, math.pi + phi, -phi))
    branch = rng.randrange(n)
    x3 = ((phi + TWO_PI * branch) / n) % TWO_PI
    phi_seen = n * x3  # the direction the program sees, after rounding x3
    bound = closest_approach_bound(phi_seen, length)
    if bound < 10 * TOL:
        raise AssertionError(f"irrational line {alpha} returns within {bound} of its seed")
    seed = (rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI), x3)
    return seed, SeedExpectation(label, False, approach_bound=bound)


def _orbit_argv(cmd: str, spec: str, seeds, step: float, s_max: float) -> list[str]:
    text = ";".join(",".join(repr(float(x)) for x in s) for s in seeds)
    return [cmd, "--field", spec, "--which", "e", "--x0", "0", "--seeds", text,
            "--step", repr(step), "--s-max", repr(s_max), "--tol", repr(TOL), "--no-meta",
            "--stdout-json"]


def survey_dup(seed: int, n: int = N_COMMANDS) -> list[Command]:
    """Surveys of 20 seeds: 2 closed lines with 3 seeds each, and 14 open lines.

    Fixed shape, so the duplicate share (4 of 6 closed seeds) and closed share
    (6 of 20) are the same in every command; the generator, speed, slopes, planes
    and start points vary with the seed. Open lines widen the lockstep batch
    without adding refinement or dedup work.
    """
    rng = random.Random(f"survey-dup/{seed}")
    length = 1.05 * TWO_PI * math.sqrt(13.0) + 4 * SURVEY_STEP  # longest period, plus margin
    cmds = []
    for i in range(n):
        nn = 1 + i % 2
        c = 10.0 ** rng.uniform(math.log10(0.7), math.log10(1.4))
        used: set = set()
        seeds, expect = [], []
        for j in range(2):
            label, x3, start, direction, pqs = _rational_line(rng, SURVEY_SLOPES, nn, used, f"r{j}")
            for t in rng.sample(range(1, 40), 3):
                seeds.append(_line_seed(start, direction, x3, 0.1 * t))
                expect.append(_closed_expectation(label, pqs, c))
        for j in range(14):
            s, e = _irrational_seed(rng, nn, length, f"i{j}")
            seeds.append(s)
            expect.append(e)
        order = rng.sample(range(len(seeds)), len(seeds))
        seeds = [seeds[k] for k in order]
        expect = [expect[k] for k in order]
        argv = _orbit_argv("survey", _field_spec(nn, c), seeds, SURVEY_STEP / c, length / c)
        cmds.append(Command("survey", argv, i, seeds=expect, expect_unique=2))
    return cmds


WORKLOADS = {"verify-sweep": verify_sweep, "survey-dup": survey_dup}
