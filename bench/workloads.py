"""The benchmark's two closed-loop workloads.

Each workload turns the workload seed into a pool of *cycles*: fixed lists of
ops whose shapes (instance, message length band) are the same for every seed
and whose details (exact ratio, desired index, per-op seeds, cached indices)
come from the seed.  A timed pass runs whole cycles, so every run measures
the same mix of op shapes and its medians do not depend on where the clock
stopped.  Every op checks its own outputs and raises `CheckFailed` when one
is wrong; the library only ever receives the generated inputs.

Ops reach the library through module attributes (`lib.protocol.retrieve`,
never a name imported once), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


class CheckFailed(Exception):
    """An op completed but one of its outputs is wrong."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Op:
    run: Callable[..., Counter]
    args: dict
    label: str = ""
    shape: tuple = ()  # what stays fixed across seeds; groups ops for scaling fits

    def __call__(self, lib) -> Counter:
        return self.run(lib, **self.args)


@dataclass(frozen=True)
class Workload:
    name: str
    pool_cycles: int  # distinct cycles generated during set-up, then repeated
    min_ops: int  # a run completes at least this many ops (tail percentile basis)
    make_cycle: Callable[[object, random.Random], list[Op]]
    memory_ops: Callable[[list[Op]], list[Op]]  # untimed tracemalloc pass, from cycle 0

    def cycles(self, lib, seed: int) -> list[list[Op]]:
        rng = random.Random(f"{self.name}:{seed}")
        return [self.make_cycle(lib, rng) for _ in range(self.pool_cycles)]


# ---------------------------------------------------------------------------
# retrieve-large: composed ratios, the quadratic data path and the rank check
#
# A third workload of thousands of corner retrievals (L <= 729) was dropped:
# its ops last about a millisecond, and on a shared 2-vCPU machine its
# medians moved by up to 30% between two sets of runs minutes apart, more
# than any bound allows.  Its transcript round trip lives on in these ops.

LARGE_SHAPES = ((4, 2), (3, 3), (5, 2))
# Message-length targets; lengths stay within 1% of them so that op cost,
# which grows with L squared today, barely moves between seeds.  Three targets
# put the median and the tail inside a group of similar ops rather than in
# the gap between two.  40 000 is left out: its rank check alone takes ~4 s
# and over a GiB of transient ints.
LARGE_LENGTHS = (9000, 13000, 18000)
LENGTH_TOLERANCE = 0.01


def _low_numerators(b: int) -> tuple[int, int]:
    # r = 1/b sits just above corner 0, where prefetch is nearly idle; a fixed
    # numerator keeps the corner mix, and so the equation count, the same
    return 1, 1


def _half_numerators(b: int) -> tuple[int, int]:
    # r within 1% of 1/2, past the last corner: prefetch copies ~L/2 bits per message
    return -(-49 * b // 100), 51 * b // 100


def _ratio_with_length(lib, p, numerators, per_denominator, target, rng):
    """Seeded ratio a/b whose split length is within the tolerance of target.

    For both kinds of ratio the split length is `per_denominator * b` whenever
    the split's fractions do not reduce, so b is drawn next to
    target/per_denominator, a from `numerators(b)`, and the draw is kept when
    the length lands within the tolerance.
    """
    centre = target / per_denominator
    for _ in range(10_000):
        b = rng.randint(int(centre * (1 - LENGTH_TOLERANCE)), int(centre * (1 + LENGTH_TOLERANCE)) + 1)
        r = Fraction(rng.randint(*numerators(b)), b)
        length = lib.scheme.split_for_ratio(p, r).total_length
        if abs(length - target) <= LENGTH_TOLERANCE * target:
            return r, length
    raise RuntimeError(f"no ratio for {p} with length near {target}")


def _large_cycle(lib, rng) -> list[Op]:
    ops = []
    for k, n in LARGE_SHAPES:
        p = lib.bounds.Params(k, n)
        bands = (
            ("low", _low_numerators, lib.bounds.corner_message_length(p, 0)),
            ("half", _half_numerators, n),
        )
        for band, numerators, per_denominator in bands:
            # theta belongs to the op's shape, not to the seed: the rank check's
            # time and memory differ by up to half between desired indices
            theta = len(ops) // len(LARGE_LENGTHS) % k
            for target in LARGE_LENGTHS:
                r, length = _ratio_with_length(lib, p, numerators, per_denominator, target, rng)
                ops.append(
                    Op(
                        _large_op,
                        dict(k=k, n=n, r=r, theta=theta, seed=rng.getrandbits(32), length=length),
                        f"retrieve k={k} n={n} r={r} L={length} theta={theta} ({band})",
                        (k, n, band),
                    )
                )
    return ops


def _large_op(lib, k, n, r, theta, seed, length) -> Counter:
    """`cachepir simulate --out` minus printing, then the transcript read back.

    Retrieve, the three audits, the transcript written as JSON, loaded again
    and re-decoded; the reload must reproduce the decoded message and the cost.
    """
    p = lib.bounds.Params(k, n)
    t = lib.protocol.retrieve(p, theta, r, seed)
    check(t.length == length, f"message length {t.length}, split said {length}")
    check(t.decoded == t.store.bits[theta], "decoded message differs from stored one")
    check(lib.audit.verify_decodability(t), "rank check rejected a correct plan")
    check(lib.audit.verify_cost(t), "cost reconciliation rejected a correct plan")
    check(lib.audit.structural_symmetry(t.plan).passed, "census rejected a correct plan")
    text = json.dumps(lib.cli.transcript_to_dict(t))
    loaded = lib.cli.transcript_from_dict(json.loads(text))
    redecoded = lib.protocol.decode(loaded.plan, [list(a) for a in loaded.answers], loaded.cache)
    check(redecoded == t.decoded and loaded.decoded == t.decoded,
          "transcript round trip changed the decoded message")
    check(loaded.cost == t.cost, "transcript round trip changed the cost")
    return Counter(desired_bits=t.length, json_bytes=len(text))


def _largest(ops: list[Op]) -> list[Op]:
    # The rank check's dense rows dominate memory: D rows, each k*L bits wide.
    # Low-r plans carry about four times the equations of r-near-1/2 plans of
    # the same length, so the largest is always a low-r op.
    low = [op for op in ops if op.shape[2] == "low"]
    return [max(low, key=lambda op: op.args["k"] * op.args["length"] ** 2)]


RETRIEVE_LARGE = Workload(
    name="retrieve-large",
    pool_cycles=3,
    min_ops=54,
    make_cycle=_large_cycle,
    memory_ops=_largest,
)


# ---------------------------------------------------------------------------
# privacy-audit: plan building and signatures; answer/decode never run

PRIVACY_INSTANCES = ((3, 2, 1), (4, 2, 2), (4, 3, 1), (5, 2, 1), (5, 2, 2))
EXACT_INSTANCES = ((2, 2, 1), (3, 2, 2))
TRIALS = 1000


def _certify_op(lib, k, n, s, seed, theta, cached, exact) -> Counter:
    """Monte-Carlo certificate plus the structural census and its controls.

    `exact` lists tiny instances to certify by full enumeration as well.
    """
    audit = lib.audit
    p = lib.bounds.Params(k, n)
    check(audit.montecarlo_privacy(p, s, TRIALS, seed).passed,
          "Monte-Carlo audit rejected a correct scheme")
    for ek, en, es in exact:
        check(audit.enumerate_privacy(lib.bounds.Params(ek, en), es).passed,
              f"exact audit rejected ({ek},{en},{es})")
    length = lib.bounds.corner_message_length(p, s)
    cache = lib.protocol.CacheState(
        length=length, indices=cached, values=tuple((0,) * len(i) for i in cached)
    )
    plan = lib.scheme.build_corner_plan(p, s, theta, cache, seed)
    check(audit.structural_symmetry(plan).passed, "census rejected a correct plan")
    check(audit.structural_symmetry(audit.sort_queries(plan)).passed,
          "census rejected a reordered plan (documented to pass)")
    mutants = (audit.drop_undesired_equation, audit.bias_mixture_assignment,
               audit.skip_message_symmetry)
    for mutate in mutants:
        check(not audit.structural_symmetry(mutate(plan)).passed,
              f"census passed a {mutate.__name__} plan")
    return Counter(controls_run=len(mutants), controls_caught=len(mutants))


def _control_op(lib, k, n, s, seed) -> Counter:
    """Negative control: the Monte-Carlo audit must fail a leaking plan."""
    p = lib.bounds.Params(k, n)
    report = lib.audit.montecarlo_privacy(
        p, s, TRIALS, seed, mutation=lib.audit.skip_message_symmetry
    )
    check(not report.passed, "Monte-Carlo audit passed a skip_message_symmetry plan")
    return Counter(controls_run=1, controls_caught=1)


def _privacy_cycle(lib, rng) -> list[Op]:
    ops = []
    for k, n, s in PRIVACY_INSTANCES:
        p = lib.bounds.Params(k, n)
        length = lib.bounds.corner_message_length(p, s)
        quota = lib.bounds.binom(k - 2, s - 1)
        cached = tuple(tuple(sorted(rng.sample(range(length), quota))) for _ in range(k))
        # the exact audits ride on the first certificate: an op of their own
        # (40 ms) would put the median on the edge of a group of similar ops
        exact = EXACT_INSTANCES if not ops else ()
        ops.append(Op(_certify_op,
                      dict(k=k, n=n, s=s, seed=rng.getrandbits(32),
                           theta=rng.randrange(k), cached=cached, exact=exact),
                      f"certify k={k} n={n} s={s}", ("certify", k, n, s)))
        ops.append(Op(_control_op, dict(k=k, n=n, s=s, seed=rng.getrandbits(32)),
                      f"control k={k} n={n} s={s}", ("control", k, n, s)))
    return ops


PRIVACY_AUDIT = Workload(
    name="privacy-audit",
    pool_cycles=3,
    min_ops=30,
    make_cycle=_privacy_cycle,
    # the cheapest certificate, which carries the exact audits: Monte-Carlo ops
    # cost 5x under tracemalloc and their peaks are a few KiB at every size
    memory_ops=lambda ops: ops[:1],
)


WORKLOADS = {w.name: w for w in (RETRIEVE_LARGE, PRIVACY_AUDIT)}
