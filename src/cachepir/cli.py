"""Command-line front end.

Subcommands: `bounds` (corner tables and point queries), `curve` (tradeoff
data behind the plots, CSV or JSON), `simulate` (one seeded retrieval run
with audits, optional transcript persistence), `audit` (structural / exact /
Monte-Carlo privacy checks), and `gap` (inner-corner gap table and the
asymptotic worst case).

Exit codes are a stable contract: 0 on success, 1 on verification or
operational failure, 2 on usage errors.  Ratios are parsed strictly as
``p/q`` or an integer.  Files render every rational both as an exact ``p/q``
token and as a decimal; the decimals are advisory, exactness lives in the
fractions.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import chain

from . import audit as audit_mod
from .bounds import (
    Params,
    corner_points,
    corner_ratio,
    curve_point,
    gap as gap_at,
    inner_corner,
    worst_case_gap,
)
from .protocol import CacheState, DecodeError, MessageStore, Transcript, pack_bits, retrieve
from .scheme import QueryPlan, is_canonical, split_for_ratio

CURVE_HEADER = (
    "r,r_exact,outer,outer_exact,inner,inner_exact,"
    "baseline,baseline_exact,gap,gap_exact"
)

_RATIO_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_ratio(text: str) -> Fraction:
    """Strict ``p/q`` or integer ratio parser."""
    if not _RATIO_RE.match(text):
        raise ValueError(f"ratio must be an integer or p/q, got {text!r}")
    return Fraction(text)


def fraction_token(value: Fraction) -> str:
    """Canonical ``p/q`` rendering used in files (denominator always explicit)."""
    return f"{value.numerator}/{value.denominator}"


def decimal_str(value: Fraction, precision: int = 12) -> str:
    """Exactly-rounded decimal with `precision` significant digits."""
    with localcontext() as ctx:
        ctx.prec = precision
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
    return str(quotient)


# ---------------------------------------------------------------------------
# transcript files

# Format 2 lists each equation as its sorted int references m·length + j.
# Format 1, a file with no "format" key, listed [m, j] pairs.
TRANSCRIPT_FORMAT = 2


def transcript_to_dict(t: Transcript) -> dict:
    """The transcript as JSON-ready values; `json` writes its tuples as arrays."""
    return {
        "format": TRANSCRIPT_FORMAT,
        "k": t.params.k,
        "n": t.params.n,
        "theta": t.plan.theta,
        "r": fraction_token(t.plan.r),
        "seed": t.plan.seed,
        "length": t.length,
        "blocks": t.plan.blocks,
        "per_db": t.plan.per_db,
        "answers": t.answers,
        "decoded": t.decoded_bits(),
        "cache": {"indices": t.cache.indices, "values": t.cache.values},
        "messages": [f"{w:0{(t.length + 3) // 4}x}" for w in t.store.bits],
        "per_db_downloads": t.plan.downloads_per_db,
        "total_downloads": t.plan.total_downloads,
        "cost": fraction_token(t.cost),
    }


def _flat_from_pairs(eq, k: int, length: int):
    """A format-1 equation's [m, j] pairs as int references m·length + j.

    Each pair is checked before it is converted, so (m, length + 3) is
    refused rather than read as (m + 1, 3).  Anything but a list or tuple is
    returned as it is, for `is_canonical` to refuse.
    """
    if type(eq) not in (list, tuple):
        return eq
    flat = []
    for ref in eq:
        if type(ref) not in (list, tuple) or len(ref) != 2:
            raise ValueError(f"transcript bit reference {ref!r} is not an [m, j] pair")
        m, j = ref
        if not (type(m) is int is type(j) and 0 <= m < k and 0 <= j < length):
            raise ValueError(
                f"transcript bit reference {ref!r} is outside {k} messages "
                f"of {length} bits"
            )
        flat.append(m * length + j)
    return tuple(flat)


def _equations(data: dict, k: int, length: int):
    """The file's per-database equations as tuples of int references."""
    version = data.get("format", 1)
    if type(version) is not int or version not in (1, 2):
        raise ValueError(f"unknown transcript format {version!r}")
    if version == 1:
        return tuple(
            tuple(_flat_from_pairs(eq, k, length) for eq in eqs) for eqs in data["per_db"]
        )
    return tuple(
        tuple(tuple(eq) if type(eq) is list else eq for eq in eqs)
        for eqs in data["per_db"]
    )


def transcript_from_dict(data: dict) -> Transcript:
    """Rebuild a transcript and check the file's recorded values against it.

    Format 2 files (see `TRANSCRIPT_FORMAT`) and format 1 files, which carry
    no "format" key and list [m, j] pairs, both load; each format-1 pair
    must name a message in range(k) and a bit in range(length).  An unknown
    format, a missing key, a wrong type, answers, cached values or decoded
    bits that are not 0/1, an equation that is not `scheme.is_canonical`
    (listed out of order, naming one message twice, or a reference outside
    range(k·length); none is re-sorted), answers that do not match the
    queries, a decoded message that is not `length` bits, recorded counts,
    cost, length or blocks that differ from the ones the queries and the
    ratio give, or a cache that does not hold the ratio's number of bits for
    each of the k messages all raise ValueError.
    """
    try:
        params = Params(data["k"], data["n"])
        length = data["length"]
        plan = QueryPlan(
            k=params.k,
            n=params.n,
            length=length,
            theta=data["theta"],
            r=Fraction(data["r"]),
            seed=data["seed"],
            blocks=tuple((s, count) for s, count in data["blocks"]),
            per_db=_equations(data, params.k, length),
        )
        for eq in chain.from_iterable(plan.per_db):
            if not is_canonical(eq, params.k, length):
                raise ValueError(
                    f"transcript equation {eq} is not canonical over {params.k} "
                    f"messages of {length} bits (see is_canonical)"
                )
        cache = CacheState(
            length=length,
            indices=tuple(tuple(idx) for idx in data["cache"]["indices"]),
            values=tuple(tuple(vals) for vals in data["cache"]["values"]),
        )
        store = MessageStore(
            count=params.k,
            length=length,
            bits=tuple(int(w, 16) for w in data["messages"]),
        )
        decoded = data["decoded"]
        if len(decoded) != length or set(decoded) - {0, 1}:
            raise ValueError(f"transcript decoded must hold {length} bits, each 0 or 1")
        t = Transcript(
            plan=plan,
            answers=tuple(tuple(a) for a in data["answers"]),
            decoded=pack_bits(decoded),
            store=store,
            cache=cache,
        )
        split = split_for_ratio(params, plan.r)
        for key, recorded, derived in (
            ("per_db_downloads", tuple(data["per_db_downloads"]), plan.downloads_per_db),
            ("total_downloads", data["total_downloads"], plan.total_downloads),
            ("cost", Fraction(data["cost"]), t.cost),
            ("length", length, split.total_length),
            ("blocks", plan.blocks, split.blocks),
            ("cached messages", len(cache.indices), params.k),
            ("cached bits per message", cache.bits_per_message, split.cached_per_message),
        ):
            if recorded != derived:
                raise ValueError(
                    f"transcript {key} {recorded} disagrees with its k, queries "
                    f"and ratio ({derived})"
                )
    except (KeyError, TypeError) as err:
        raise ValueError(f"malformed transcript: {err!r}") from err
    return t


def write_transcript(t: Transcript, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(transcript_to_dict(t), fh, indent=1)
        fh.write("\n")


def load_transcript(path: str) -> Transcript:
    with open(path, encoding="utf-8") as fh:
        return transcript_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# curve files


def curve_grid(p: Params, samples: int) -> list[Fraction]:
    """Uniform grid joined with every outer corner and inner corner."""
    grid = {Fraction(j, samples - 1) for j in range(samples)}
    grid.update(corner_ratio(p, s) for s in range(p.k))
    grid.update(inner_corner(p, i) for i in range(1, p.k))
    grid.add(Fraction(1))
    return sorted(grid)


def curve_rows(p: Params, samples: int):
    return [curve_point(p, r) for r in curve_grid(p, samples)]


def write_curve_csv(p: Params, samples: int, precision: int, fh) -> None:
    fh.write(CURVE_HEADER + "\n")
    for pt in curve_rows(p, samples):
        cells = []
        for value in (pt.r, pt.outer, pt.inner, pt.baseline, pt.gap):
            cells.append(decimal_str(value, precision))
            cells.append(fraction_token(value))
        fh.write(",".join(cells) + "\n")


def write_curve_json(p: Params, samples: int, precision: int, fh) -> None:
    points = []
    for pt in curve_rows(p, samples):
        entry = {}
        for name, value in (
            ("r", pt.r),
            ("outer", pt.outer),
            ("inner", pt.inner),
            ("baseline", pt.baseline),
            ("gap", pt.gap),
        ):
            entry[name] = fraction_token(value)
            entry[name + "_decimal"] = decimal_str(value, precision)
        points.append(entry)
    json.dump(
        {"k": p.k, "n": p.n, "samples": samples, "precision": precision, "points": points},
        fh,
        indent=1,
    )
    fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands


# Work budget of `bounds`, `curve` and `gap`, checked before any arithmetic
# (exit 2).  Each corner value sums about k rationals of about k·log2(n)
# bits: the corner table costs about 4k² such terms, and each evaluated
# ratio (a curve row, a gap row, `bounds --r`) about 2k more, plus a fixed
# cost near 256 for building and rendering its row.  One unit is one term
# per 64-bit word of width; on a 2-vCPU machine 10⁶ units at n=2 took
# 0.3–0.6 s, so the budget admits about 2.5 s of work.
MAX_EXACT_WORK = 4 * 10**6


def _check_work(p: Params, rows: int) -> None:
    """Refuse, with ValueError, a command over MAX_EXACT_WORK at `rows` ratios."""
    words = 1 + p.k * p.n.bit_length() // 64
    work = (4 * p.k * p.k + rows * (2 * p.k + 256)) * words
    if work > MAX_EXACT_WORK:
        raise ValueError(
            f"k={p.k} over {rows} ratios needs about {work} units of exact "
            f"arithmetic, over the budget of {MAX_EXACT_WORK}"
        )


def _show(value: Fraction, precision: int) -> str:
    return f"{value}  ({decimal_str(value, precision)})"


def cmd_bounds(args) -> int:
    p = Params(args.k, args.n)
    _check_work(p, 1)
    precision = args.precision
    print(f"corner points for k={p.k} messages, n={p.n} databases")
    print(f"{'s':>4} {'r_s':>14} {'L(s)':>10} {'D(r_s)':>10}  cost")
    for corner in corner_points(p):
        print(
            f"{corner.s:>4} {str(corner.ratio):>14} {corner.msg_len:>10} "
            f"{corner.total_download:>10}  {_show(corner.cost, precision)}"
        )
    print(f"{'-':>4} {'1':>14} {'-':>10} {'0':>10}  0")
    if args.r is not None:
        pt = curve_point(p, args.r)
        print(f"at r = {pt.r}:")
        print(f"  outer    = {_show(pt.outer, precision)}")
        print(f"  inner    = {_show(pt.inner, precision)}")
        print(f"  baseline = {_show(pt.baseline, precision)}")
        print(f"  gap      = {_show(pt.gap, precision)}")
    return 0


def cmd_curve(args) -> int:
    p = Params(args.k, args.n)
    if args.samples < 2:
        raise ValueError(f"need at least 2 samples, got {args.samples}")
    _check_work(p, args.samples + 2 * p.k)
    writer = write_curve_csv if args.format == "csv" else write_curve_json
    if args.out is None:
        writer(p, args.samples, args.precision, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            writer(p, args.samples, args.precision, fh)
        print(f"wrote {args.format} curve for k={p.k}, n={p.n} to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    p = Params(args.k, args.n)
    if (args.r is None) == (args.s is None):
        raise ValueError("give exactly one of --r and --s")
    r = args.r if args.r is not None else corner_ratio(p, args.s)
    precision = args.precision
    if args.out is not None:
        folder = os.path.dirname(os.path.abspath(args.out))
        if not os.path.isdir(folder):
            raise FileNotFoundError(f"no such output directory: {folder}")
    try:
        t = retrieve(p, args.theta, r, args.seed)
    except DecodeError as err:
        print(f"decode failed: {err}", file=sys.stderr)
        return 1
    decoded_ok = audit_mod.verify_decodability(t)
    cost_ok = audit_mod.verify_cost(t)
    symmetry = audit_mod.structural_symmetry(t.plan)
    print(
        f"k={p.k} n={p.n} theta={t.plan.theta} r={t.plan.r} seed={args.seed} "
        f"length={t.length}"
    )
    print(
        f"downloads per database: {list(t.plan.downloads_per_db)} "
        f"(total {t.plan.total_downloads})"
    )
    print(f"cost = {_show(t.cost, precision)}")
    print(f"decode exact:        {'pass' if decoded_ok else 'FAIL'}")
    print(f"cost reconciliation: {'pass' if cost_ok else 'FAIL'}")
    print(f"structural symmetry: {'pass' if symmetry.passed else 'FAIL'}")
    if symmetry.detail:
        print(f"  {symmetry.detail}")
    if args.out is not None:
        write_transcript(t, args.out)
        print(f"transcript written to {args.out}")
    return 0 if decoded_ok and cost_ok and symmetry.passed else 1


def _print_report(report) -> None:
    print(f"mode:      {report.mode}")
    print(f"distance:  {report.distance}")
    print(f"per-db:    {list(report.per_db)}")
    if report.trials is not None:
        print(f"trials:    {report.trials}")
    if report.detail:
        print(f"detail:    {report.detail}")
    print(f"verdict:   {'pass' if report.passed else 'FAIL'}")


def cmd_audit(args) -> int:
    p = Params(args.k, args.n)
    if args.mode == "structural":
        r = corner_ratio(p, args.s)
        for theta in range(p.k):
            report = audit_mod.structural_symmetry(retrieve(p, theta, r, args.seed).plan)
            if not report.passed:
                report = replace(report, detail=f"theta {theta}: {report.detail}")
                break
    elif args.mode == "exact":
        report = audit_mod.enumerate_privacy(p, args.s)
    else:
        report = audit_mod.montecarlo_privacy(p, args.s, args.trials, args.seed)
    _print_report(report)
    return 0 if report.passed else 1


def cmd_gap(args) -> int:
    if args.kmax < 2:
        raise ValueError(f"--kmax must be at least 2, got {args.kmax}")
    p = Params(args.kmax, args.n)
    _check_work(p, 2 * p.k if args.asymptotic else p.k)
    precision = args.precision
    print(f"gap at the inner corners for k={p.k}, n={p.n}")
    for i in range(1, p.k):
        r = inner_corner(p, i)
        print(f"  i={i:<3} r={str(r):<28} gap={_show(gap_at(p, r), precision)}")
    if args.asymptotic:
        r_star, delta = worst_case_gap(args.n, max(args.kmax, 10))
        print("asymptotic worst case (outer asymptote vs converse):")
        print(f"  argmax r = {r_star}")
        print(f"  max gap  = {_show(delta, precision)}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cachepir",
        description=(
            "Exact bounds, query plans, simulation, and privacy audits for "
            "cache-aided private information retrieval with unknown uncoded "
            "prefetching."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, *, k=True):
        if k:
            sp.add_argument("--k", type=int, required=True, help="number of messages")
        sp.add_argument("--n", type=int, required=True, help="number of databases")
        sp.add_argument(
            "--precision",
            type=int,
            default=12,
            help="significant digits for decimal rendering",
        )

    sp = sub.add_parser("bounds", help="corner table and point bounds")
    add_common(sp)
    sp.add_argument("--r", type=parse_ratio, help="caching ratio p/q to evaluate")
    sp.set_defaults(handler=cmd_bounds)

    sp = sub.add_parser("curve", help="emit the tradeoff curve")
    add_common(sp)
    sp.add_argument("--samples", type=int, default=101, help="uniform grid size")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", help="output path (stdout when omitted)")
    sp.set_defaults(handler=cmd_curve)

    sp = sub.add_parser("simulate", help="run one seeded retrieval")
    add_common(sp)
    sp.add_argument("--theta", type=int, required=True, help="desired message index")
    sp.add_argument("--r", type=parse_ratio, help="caching ratio p/q")
    sp.add_argument("--s", type=int, help="corner index instead of --r")
    sp.add_argument("--seed", type=int, required=True, help="master seed")
    sp.add_argument("--out", help="write the transcript to this path")
    sp.set_defaults(handler=cmd_simulate)

    sp = sub.add_parser("audit", help="privacy audits over fresh plans")
    add_common(sp)
    sp.add_argument("--s", type=int, required=True, help="corner index")
    sp.add_argument(
        "--mode", choices=("structural", "exact", "montecarlo"), required=True
    )
    sp.add_argument("--trials", type=int, default=10000)
    sp.add_argument("--seed", type=int, required=True, help="master seed")
    sp.set_defaults(handler=cmd_audit)

    sp = sub.add_parser("gap", help="inner-corner gap table and worst case")
    add_common(sp, k=False)
    sp.add_argument("--kmax", type=int, default=100, help="message count to evaluate")
    sp.add_argument(
        "--asymptotic",
        action="store_true",
        help="also report the asymptotic worst-case gap and its argmax",
    )
    sp.set_defaults(handler=cmd_gap)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
