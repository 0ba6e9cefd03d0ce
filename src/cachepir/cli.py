"""Command-line front end.

Subcommands: `bounds` (corner tables and point queries), `curve` (tradeoff
data behind the plots, CSV or JSON), `simulate` (one seeded retrieval run
with audits, optional transcript persistence), `audit` (the privacy
certificate on the plan `retrieve` ships at one corner, for every desired
index, all assembled from one draw), and `gap` (inner-corner gap table and
the asymptotic worst case).

The transcript loader is the JSON layer only: the format, the objects built
from the file's values (each constructor checks its own fields), the
simulation budget before any message is unpacked, and the values only a
file records (download counts and cost).  Every rule that ties a
transcript's fields together is `protocol.check_transcript`, which the
loader calls last.

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
from decimal import Decimal, localcontext
from fractions import Fraction

from . import audit as audit_mod
from .bounds import (
    Params,
    _check_range,
    corner_points,
    corner_ratio,
    curve_point,
    gap as gap_at,
    inner_corner,
    worst_case_gap,
)
from .protocol import (
    CacheState, DecodeError, MessageStore, Transcript, _are_bits, _budgeted_corner,
    _check_simulation_budget, _draw, check_transcript, pack_bits, retrieve, unpack_bits,
)
from .scheme import QueryPlan, compose_plans

CURVE_FIELDS = ("r", "outer", "inner", "baseline", "gap")  # `CurvePoint` fields
CURVE_HEADER = ",".join(f"{name},{name}_exact" for name in CURVE_FIELDS)

_RATIO_RE = re.compile(r"^[+-]?\d+(/0*[1-9]\d*)?$")  # q = 0 is no ratio


def parse_ratio(text: str) -> Fraction:
    """Strict ``p/q`` (q > 0) or integer ratio parser."""
    if not _RATIO_RE.match(text):
        raise ValueError(f"ratio must be an integer or p/q with q > 0, got {text!r}")
    return Fraction(text)


MAX_PRECISION = 1000  # the exact p/q printed beside each decimal has every digit


def parse_precision(text: str) -> int:
    """`--precision`, checked before any output: 1 to MAX_PRECISION digits."""
    digits = int(text)
    if not 1 <= digits <= MAX_PRECISION:
        raise argparse.ArgumentTypeError(f"must be 1 to {MAX_PRECISION}, got {digits}")
    return digits


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
        "decoded": list(t.decoded),
        "cache": {"indices": t.cache.indices, "values": t.cache.values},
        "messages": [f"{pack_bits(w):0{(t.length + 3) // 4}x}" for w in t.store.bits],
        "per_db_downloads": t.plan.downloads_per_db,
        "total_downloads": t.plan.total_downloads,
        "cost": fraction_token(t.cost),
    }


def _equations(data: dict):
    """The file's per-database equations as tuples of int references."""
    version = data.get("format")
    if type(version) is not int or version != TRANSCRIPT_FORMAT:
        raise ValueError(
            f"unknown transcript format {version!r}: "
            f"only format {TRANSCRIPT_FORMAT} is read"
        )
    return tuple(
        tuple([tuple(eq) if type(eq) is list else eq for eq in eqs])  # see audit._relabel
        for eqs in data["per_db"]
    )


def _fraction_field(data: dict, key: str) -> Fraction:
    """A file's ratio or cost, only as the token `fraction_token` writes: a
    value not in lowest terms or padded with spaces would load, but not
    write back the same."""
    text = data[key]
    value = Fraction(text)
    if fraction_token(value) != text:
        raise ValueError(
            f"transcript {key} {text!r} is not written as {fraction_token(value)!r}"
        )
    return value


def transcript_from_dict(data: dict) -> Transcript:
    """Rebuild a transcript from a file's values, then `protocol.check_transcript` it.

    Only format 2 files load (see `TRANSCRIPT_FORMAT`); each hex message is
    unpacked once into its `length` 0/1 bytes, and the decoded bits become
    bytes.  A file whose "format" is missing or is anything but the int 2,
    k messages of `length` bits over `protocol.MAX_SIMULATED_BITS` (refused
    before any message is unpacked), a hex message wider than `length` bits
    or negative, a missing key, a wrong type, a k, n, length, theta, block
    corner or count, or cache index that is not an int, answers, cached
    values or decoded bits that are not the ints 0 and 1 (JSON true and
    false are none of these: they would load equal but not write back the
    same), an r or cost that is not the `fraction_token` of its value (in
    lowest terms, no spaces), a decoded message that is not `length` bits,
    recorded download counts or cost that differ from the ones the queries
    give, and every transcript `check_transcript` refuses (length, blocks
    or cache against the ratio, cached values, answers or decoded bits
    against the recorded messages, and equations that `protocol.answer`
    refuses under `scheme.first_non_canonical`; none is re-sorted) raise
    ValueError.
    """
    try:
        params = Params(data["k"], data["n"])
        plan = QueryPlan(
            k=params.k,
            n=params.n,
            length=data["length"],
            theta=data["theta"],
            r=_fraction_field(data, "r"),
            seed=data["seed"],
            blocks=tuple((s, count) for s, count in data["blocks"]),
            per_db=_equations(data),
        )
        length = plan.length
        _check_simulation_budget(params.k, length, "transcript holds")
        cache = CacheState(
            length=length,
            indices=tuple(tuple(idx) for idx in data["cache"]["indices"]),
            values=tuple(tuple(vals) for vals in data["cache"]["values"]),
        )
        store = MessageStore(
            count=params.k,
            length=length,
            bits=tuple(unpack_bits(int(w, 16), length) for w in data["messages"]),
        )
        decoded = data["decoded"]
        if not _are_bits(decoded):  # bytes() would take true and false as 1 and 0
            raise ValueError(f"transcript decoded must hold {length} bits, each 0 or 1")
        t = Transcript(
            plan=plan,
            answers=tuple(tuple(a) for a in data["answers"]),
            decoded=bytes(decoded),
            store=store,
            cache=cache,
        )
        for key, recorded, derived in (
            ("per_db_downloads", tuple(data["per_db_downloads"]), plan.downloads_per_db),
            ("total_downloads", data["total_downloads"], plan.total_downloads),
            ("cost", _fraction_field(data, "cost"), t.cost),
        ):
            if recorded != derived:
                raise ValueError(
                    f"transcript {key} {recorded} disagrees with its queries ({derived})"
                )
        check_transcript(t)
    except (KeyError, TypeError) as err:
        raise ValueError(f"malformed transcript: {err!r}") from err
    return t


def write_transcript(t: Transcript, path: str) -> None:
    """One compact line: `json.dumps` without an indent runs json's C encoder,
    where `json.dump` or any indent falls back to the pure-Python one."""
    text = json.dumps(transcript_to_dict(t), separators=(",", ":"))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
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
        for name in CURVE_FIELDS:
            value = getattr(pt, name)
            cells.append(decimal_str(value, precision))
            cells.append(fraction_token(value))
        fh.write(",".join(cells) + "\n")


def write_curve_json(p: Params, samples: int, precision: int, fh) -> None:
    points = []
    for pt in curve_rows(p, samples):
        entry = {}
        for name in CURVE_FIELDS:
            value = getattr(pt, name)
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
# (exit 2), for numbers of w = 1 + k·⌈log2 n⌉/64 words (n^k has k·log2 n
# bits; `n.bit_length()` would count 2 bits at n = 2).  The corner table sums
# about k² running products: k²·w units.  Each ratio evaluated (a curve row,
# a gap row, `bounds --r`) bisects the outer and inner corners, O(log k)
# fraction operations, and renders its row; gcd and int-to-str are quadratic
# in w: 2000 + 150·w + 5·w² units, no factor of k.  Measured in-process on a
# 2-vCPU machine (Python 3.11), k = 4..1300 at n = 2, 3, 5, 7 and up to the
# digit limit below at n = 10³, 10⁶, 10¹², 10⁴⁰, 10¹⁰⁰, 10³⁰⁰ (w = 1..110): a
# unit took 15–50 ns in every table over 0.05 s, and under 40 ns in a row
# (50 µs at w = 1, 2.7 ms at w = 107), so the budget admits about 2 s.  At
# the n = 2 edge, `bounds --k 1471` took 1.7–1.9 s and `gap --kmax 1343`
# 1.3 s in a fresh process.
MAX_EXACT_WORK = 5 * 10**7


def _check_work(p: Params, rows: int) -> None:
    """Refuse, with ValueError, p's corner table and `rows` ratios over MAX_EXACT_WORK.

    Also refuse one whose values could pass Python's int-to-str limit halfway
    through the output: they stay under 2k·(bits(n) + 1) bits (curve rows,
    the widest, reached 0.86 of that at k = 15).
    """
    words = 1 + p.k * (p.n - 1).bit_length() // 64
    work = p.k * p.k * words + rows * (2000 + 150 * words + 5 * words * words)
    if work > MAX_EXACT_WORK:
        raise ValueError(
            f"k={p.k} over {rows} ratios needs about {work} units of exact "
            f"arithmetic, over the budget of {MAX_EXACT_WORK}"
        )
    bits = p.n.bit_length()
    digits = 2 * p.k * (bits + 1) * 30103 // 100000 + 1  # log10(2) = 0.30103...
    # 0 means no limit; Python before 3.10.7 has none and no getter
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and digits > limit:
        raise ValueError(
            f"n of {bits} bits at k={p.k} renders numbers of about {digits} "
            f"digits, over Python's limit of {limit} (sys.get_int_max_str_digits)"
        )


def _show(value: Fraction, precision: int) -> str:
    return f"{value}  ({decimal_str(value, precision)})"


def cmd_bounds(args) -> int:
    p = Params(args.k, args.n)
    _check_work(p, 0 if args.r is None else 1)
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
    _check_range("samples", args.samples, 2)
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
    r = args.r if args.r is not None else _budgeted_corner(p, args.s).ratio
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
    decoded_ok = t.decoded == t.store.bits[t.plan.theta]  # retrieve just decoded it
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


def cmd_audit(args) -> int:
    p = Params(args.k, args.n)
    _, _, drawn = _draw(p, _budgeted_corner(p, args.s).ratio, args.seed)  # retrieve's draw
    for theta in range(p.k):
        report = audit_mod.structural_symmetry(compose_plans(p, theta, drawn))
        if not report.passed:
            break
    print(f"distance:  {report.distance}")
    print(f"per-db:    {', '.join(map(str, report.per_db))}")
    if report.detail:
        print(f"detail:    theta {theta}: {report.detail}")
    print(f"verdict:   {'pass' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def cmd_gap(args) -> int:
    p = Params(args.kmax, args.n)
    # --asymptotic adds the 9 inner corners of worst_case_gap's k = 10 converse
    widest = Params(max(p.k, 10), p.n) if args.asymptotic else p
    _check_work(widest, p.k - 1 + (9 if args.asymptotic else 0))
    precision = args.precision
    print(f"gap at the inner corners for k={p.k}, n={p.n}")
    for i in range(1, p.k):
        r = inner_corner(p, i)
        print(f"  i={i:<3} r={str(r):<28} gap={_show(gap_at(p, r), precision)}")
    if args.asymptotic:
        r_star, delta = worst_case_gap(p.n)
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

    prec = argparse.ArgumentParser(add_help=False)  # all but `audit` render decimals
    prec.add_argument(
        "--precision", type=parse_precision, default=12,
        help=f"significant digits for decimal rendering, 1 to {MAX_PRECISION}",
    )

    sp = sub.add_parser("bounds", parents=[prec], help="corner table and point bounds")
    add_common(sp)
    sp.add_argument("--r", type=parse_ratio, help="caching ratio p/q to evaluate")
    sp.set_defaults(handler=cmd_bounds)

    sp = sub.add_parser("curve", parents=[prec], help="emit the tradeoff curve")
    add_common(sp)
    sp.add_argument("--samples", type=int, default=101, help="uniform grid size")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", help="output path (stdout when omitted)")
    sp.set_defaults(handler=cmd_curve)

    sp = sub.add_parser("simulate", parents=[prec], help="run one seeded retrieval")
    add_common(sp)
    sp.add_argument("--theta", type=int, required=True, help="desired message index")
    sp.add_argument("--r", type=parse_ratio, help="caching ratio p/q")
    sp.add_argument("--s", type=int, help="corner index instead of --r")
    sp.add_argument("--seed", type=int, required=True, help="master seed")
    sp.add_argument("--out", help="write the transcript to this path")
    sp.set_defaults(handler=cmd_simulate)

    sp = sub.add_parser("audit", help="privacy certificate on every desired index's plan")
    add_common(sp)
    sp.add_argument("--s", type=int, required=True, help="corner index")
    sp.add_argument("--seed", type=int, required=True, help="master seed")
    sp.set_defaults(handler=cmd_audit)

    sp = sub.add_parser("gap", parents=[prec], help="inner-corner gap table and worst case")
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
