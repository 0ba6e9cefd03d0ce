"""CLI contract: exit codes, output values, curve and transcript files."""

import json
import re
import shlex
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

from cachepir import (
    Params,
    compose_plans,
    decode,
    draw_plan,
    drop_undesired_equation,
    enumerate_privacy,
    montecarlo_privacy,
    outer_bound,
    retrieve,
    verify_cost,
)
from cachepir import audit, bounds, cli, protocol
from cachepir.cli import (
    CURVE_HEADER,
    decimal_str,
    fraction_token,
    load_transcript,
    main,
    parse_ratio,
    transcript_from_dict,
    transcript_to_dict,
)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_ratio_strict():
    assert parse_ratio("1/7") == F(1, 7)
    assert parse_ratio("1") == F(1)
    assert parse_ratio("0") == F(0)
    for bad in ("0.3", "1/7/2", "a", "1/ 7", "", "1/0"):
        with pytest.raises(ValueError):
            parse_ratio(bad)


def test_fraction_token_and_decimal():
    assert fraction_token(F(8, 7)) == "8/7"
    assert fraction_token(F(0)) == "0/1"
    assert decimal_str(F(1, 3), 5) == "0.33333"
    assert decimal_str(F(0)) == "0"


def test_bounds_output(capsys):
    code, out, _ = run(["bounds", "--k", "3", "--n", "2", "--r", "1/5"], capsys)
    assert code == 0
    assert "7/4" in out and "8/7" in out and "2/3" in out
    assert "outer    = 1" in out
    assert "gap      = 0" in out


def test_bounds_k2_corners(capsys):
    code, out, _ = run(["bounds", "--k", "2", "--n", "2"], capsys)
    assert code == 0
    assert "3/2" in out and "2/3" in out and "1/3" in out


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--k", "3"])  # missing --n
    assert exc.value.code == 2
    for argv in (
        ["bounds", "--k", "3", "--n", "2", "--r", "0.3"],  # float ratio
        ["bounds", "--k", "3", "--n", "2", "--r", "1/0"],
        ["simulate", "--k", "3", "--n", "2", "--r", "1/0", "--theta", "0", "--seed", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    code, _, err = run(["bounds", "--k", "1", "--n", "2"], capsys)
    assert code == 2
    assert "error" in err
    for removed in (["--mode", "structural"], ["--trials", "1000"], ["--precision", "12"]):
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--k", "3", "--n", "2", "--s", "1", "--seed", "3", *removed])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--k", "3", "--n", "2", "--precision", "0"],
        ["simulate", "--k", "3", "--n", "2", "--s", "1", "--theta", "0", "--seed", "1",
         "--precision", "0"],
        ["gap", "--n", "2", "--kmax", "3", "--precision", "100000000000000000000"],
    ],
)
def test_precision_out_of_range_exits_2_before_output(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--precision" in captured.err and "1 to 1000" in captured.err


def test_simulate_both_r_and_s_rejected(capsys):
    code, _, err = run(
        ["simulate", "--k", "3", "--n", "2", "--r", "1/7", "--s", "1",
         "--theta", "0", "--seed", "1"],
        capsys,
    )
    assert code == 2
    assert "exactly one" in err


def test_curve_csv_file(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code, _, _ = run(
        ["curve", "--k", "4", "--n", "2", "--samples", "11", "--out", str(out)],
        capsys,
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CURVE_HEADER
    rows = [line.split(",") for line in lines[1:]]
    exact_rs = [F(row[1]) for row in rows]
    assert exact_rs == sorted(exact_rs)
    # corners and inner corners are all on the grid
    for needed in (F(1, 15), F(1, 5), F(1, 3), F(1, 7), F(0), F(1)):
        assert needed in exact_rs
    p = Params(4, 2)
    for row in rows:
        r = F(row[1])
        assert F(row[3]) == outer_bound(p, r)
        # decimal and exact columns agree to the rendered precision
        for decimal_cell, exact_cell in zip(row[0::2], row[1::2]):
            exact = F(exact_cell)
            approx = F(decimal_cell)
            assert abs(approx - exact) <= F(1, 10**10) * max(1, abs(exact))


def test_curve_json(tmp_path, capsys):
    out = tmp_path / "curve.json"
    code, _, _ = run(
        ["curve", "--k", "3", "--n", "2", "--samples", "5", "--format", "json",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["k"] == 3 and data["n"] == 2
    by_r = {point["r"]: point for point in data["points"]}
    assert by_r["1/7"]["outer"] == "8/7"
    assert by_r["1/3"]["inner"] == "2/3"


def test_curve_samples_guard(capsys):
    code, _, err = run(["curve", "--k", "3", "--n", "2", "--samples", "1"], capsys)
    assert code == 2
    assert "samples" in err


def test_curve_unwritable_path(capsys):
    code, _, err = run(
        ["curve", "--k", "3", "--n", "2", "--out", "/nonexistent-dir/c.csv"],
        capsys,
    )
    assert code == 1
    assert "i/o error" in err


# The bytes `simulate --k 3 --n 2 --s 1 --theta 0 --seed 42 --out` writes: one
# compact JSON line and a newline.
SEED_42_FILE = (
    b'{"format":2,"k":3,"n":2,"theta":0,"r":"1/7","seed":42,"length":7,'
    b'"blocks":[[1,1]],"per_db":[[[9,18],[5,8,17],[4,19],[6,13]],'
    b'[[0,19],[3,9,18],[8,17],[1,13]]],"answers":[[1,0,0,1],[1,1,0,0]],'
    b'"decoded":[1,0,0,0,0,0,1],"cache":{"indices":[[2],[6],[5]],'
    b'"values":[[0],[0],[0]]},"messages":["41","31","54"],'
    b'"per_db_downloads":[4,4],"total_downloads":8,"cost":"8/7"}\n'
)


def test_simulate_golden_and_transcript_roundtrip(tmp_path, capsys):
    out = tmp_path / "transcript.json"
    code, text, _ = run(
        ["simulate", "--k", "3", "--n", "2", "--s", "1", "--theta", "0",
         "--seed", "42", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert "cost = 8/7" in text
    assert "decode exact:        pass" in text
    assert "decodability rank" not in text
    assert out.read_bytes() == SEED_42_FILE
    t = load_transcript(str(out))
    assert decode(t.plan, t.answers, t.cache) == t.decoded
    assert verify_cost(t)
    assert t.cost == F(8, 7)


def test_simulate_decodes_once(monkeypatch, capsys):
    # "decode exact" reads what retrieve decoded; a second decode would
    # recompute it (at L = 800 000 about 2.4 s)
    calls = []
    real = protocol.decode
    for module in (protocol, audit):  # every module that binds decode
        monkeypatch.setattr(module, "decode", lambda *a: calls.append(a) or real(*a))
    code, text, _ = run(
        ["simulate", "--k", "4", "--n", "2", "--r", "1/50", "--theta", "1", "--seed", "5"],
        capsys,
    )
    assert code == 0
    assert "decode exact:        pass" in text
    assert len(calls) == 1


def test_simulate_reports_a_wrong_decode(monkeypatch, capsys):
    real = protocol.decode
    monkeypatch.setattr(
        protocol, "decode", lambda *args: bytes(1 - b for b in real(*args))
    )
    code, text, _ = run(
        ["simulate", "--k", "3", "--n", "2", "--s", "1", "--theta", "0", "--seed", "42"],
        capsys,
    )
    assert code == 1
    assert "decode exact:        FAIL" in text


def file_dict(t):
    """The transcript as a loaded file holds it: lists, not tuples."""
    return json.loads(json.dumps(transcript_to_dict(t)))


def extra_cached_bit(data):
    """Cache one more bit of every message, its value copied from the message."""
    for m, (idx, vals) in enumerate(zip(data["cache"]["indices"], data["cache"]["values"])):
        j = min(set(range(data["length"])) - set(idx))
        idx.append(j)
        vals.append((int(data["messages"][m], 16) >> j) & 1)


def test_simulate_checks_output_directory_first(tmp_path, capsys):
    out = tmp_path / "missing" / "t.json"
    code, text, err = run(
        ["simulate", "--k", "4", "--n", "2", "--r", "7/9973", "--theta", "2",
         "--seed", "3", "--out", str(out)],
        capsys,
    )
    assert code == 1
    assert "i/o error" in err
    assert text == ""
    assert not out.parent.exists()


# The refusal tests edit the file of retrieve(Params(3, 2), 0, 1/7, 1): k = 3
# messages of L = 7 bits, desired index 0, so bit j of message m is 7·m + j.
K, L = 3, 7


def flip_message_bit(data, m, j):
    """Flip bit j of message m's hex, keeping its width."""
    hexes = data["messages"]
    hexes[m] = f"{int(hexes[m], 16) ^ (1 << j):0{len(hexes[m])}x}"


def set_last_reference(data, x):
    """Replace the last reference of the first equation, keeping the rest."""
    data["per_db"][0][0][-1] = x


def second_bit_of_undesired(data):
    """Add to an undesired equation a second bit of a message it already names.

    The equation stays a strictly increasing int list: only the messages
    x // L show the fault.
    """
    eq = next(eq for eq in data["per_db"][0] if eq[0] >= L)
    m, j = divmod(eq[-1], L)
    eq.append(m * L + (j + 1) % L)
    eq.sort()


def bool_cache_index(data):
    """Cache bit 1 of message 0 under the index `true`, its value copied in.

    True == 1, so the file stays consistent and only the type shows.
    """
    data["cache"]["indices"][0][0] = True
    data["cache"]["values"][0][0] = (int(data["messages"][0], 16) >> 1) & 1


# Ints in fields that JSON could hold as a bool or a float, each edit paired
# with the field its refusal names.
NON_INT_FIELDS = [
    (lambda d: d.update(theta=bool(d["theta"])), "theta"),
    (lambda d: d.update(theta=float(d["theta"])), "theta"),
    (lambda d: d["blocks"][0].__setitem__(0, True), "block corner"),
    (lambda d: d["blocks"][0].__setitem__(1, True), "block count"),
    (lambda d: d["blocks"][0].__setitem__(1, 1.0), "block count"),
    (bool_cache_index, "cached index"),
    (lambda d: d["cache"]["indices"][1].__setitem__(0, 5.0), "cached index"),
    (lambda d: d.update(length=7.0), "length"),
]
NON_INT_IDS = [
    "bool-theta",
    "float-theta",
    "bool-block-corner",
    "bool-block-count",
    "float-block-count",
    "bool-cache-index",
    "float-cache-index",
    "float-length",
]


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.update(per_db_downloads=[5, 3]),
        lambda d: d.update(total_downloads=d["total_downloads"] + 1),
        lambda d: d.update(cost="9/7"),
        lambda d: d["answers"][0].pop(),
        lambda d: d.update(blocks=[[2, 1]]),
        lambda d: d.update(length=14, cost="4/7", decoded=d["decoded"] * 2),
        lambda d: d["answers"][0].__setitem__(0, 5),
        lambda d: d["cache"]["values"][0].__setitem__(0, 3),
        lambda d: d["decoded"].__setitem__(0, 2),
        lambda d: d["decoded"].pop(),
        lambda d: d["decoded"].__setitem__(3, 1 - d["decoded"][3]),
        lambda d: set_last_reference(d, K * L),
        lambda d: d["per_db"][0][0].append(d["per_db"][0][0][0]),
        second_bit_of_undesired,
        lambda d: d["per_db"][0][0].reverse(),
        lambda d: d["per_db"][0].__setitem__(0, frozenset(d["per_db"][0][0])),
        lambda d: set_last_reference(d, K * L + d["per_db"][0][0][-1] % L),
        lambda d: set_last_reference(d, float(d["per_db"][0][0][-1])),
        lambda d: d["cache"].update(
            indices=d["cache"]["indices"][:2], values=d["cache"]["values"][:2]
        ),
        extra_cached_bit,
        lambda d: d["per_db"][0][0].__setitem__(0, -1),
        lambda d: d["per_db"][0][0].__setitem__(0, True),
        lambda d: d.update(format=3),
        lambda d: d.update(format="2"),
        lambda d: d.pop("format"),
        lambda d: d.update(format=True),
        lambda d: d.update(format=2.0),
        lambda d: flip_message_bit(d, 1, 3),
        lambda d: flip_message_bit(d, 1, d["cache"]["indices"][1][0]),
        lambda d: flip_message_bit(d, 0, d["cache"]["indices"][0][0]),
        lambda d: flip_message_bit(d, 1, L),
        lambda d: d["messages"].__setitem__(1, "-1"),
        lambda d: d.update(r="2/14"),
        lambda d: d.update(r=" 1/7"),
        lambda d: d.update(cost="16/14"),
        lambda d: d.update(cost="8/7 "),
        *(edit for edit, _ in NON_INT_FIELDS),
    ],
    ids=[
        "per_db_downloads",
        "total_downloads",
        "cost",
        "short-answers",
        "blocks",
        "length",
        "answer-bit",
        "cached-bit",
        "decoded-bit",
        "short-decoded",
        "decoded-vs-message",
        "bit-out-of-range",
        "repeated-reference",
        "message-twice",
        "out-of-order",
        "frozenset",
        "message-out-of-range",
        "float-bit",
        "cache-two-messages",
        "cache-extra-bit",
        "negative-reference",
        "bool-reference",
        "unknown-format",
        "string-format",
        "format-1",
        "bool-format",
        "float-format",
        "answers-vs-messages",
        "cache-vs-message",
        "desired-cache-vs-message",
        "message-too-wide",
        "negative-message",
        "r-not-lowest-terms",
        "r-with-space",
        "cost-not-lowest-terms",
        "cost-with-space",
        *NON_INT_IDS,
    ],
)
def test_transcript_loader_refuses_inconsistent_file(edit):
    data = file_dict(retrieve(Params(3, 2), 0, F(1, 7), 1))
    assert data["per_db_downloads"] == [4, 4] and data["cost"] == "8/7"
    edit(data)
    with pytest.raises(ValueError):
        transcript_from_dict(data)


@pytest.mark.parametrize("edit,field", NON_INT_FIELDS, ids=NON_INT_IDS)
def test_transcript_loader_names_non_int_field(edit, field):
    data = file_dict(retrieve(Params(3, 2), 0, F(1, 7), 1))
    edit(data)
    with pytest.raises(ValueError, match=f"{field} must be an int"):
        transcript_from_dict(data)


def set_first(values, bit):
    """Put the JSON boolean for `bit` where `values` first holds that bit."""
    values[values.index(bit)] = bool(bit)


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: set_first(d["answers"][0], 1),
        lambda d: set_first(d["answers"][1], 0),
        lambda d: set_first(d["cache"]["values"][0], d["cache"]["values"][0][0]),
        lambda d: set_first(d["decoded"], 1),
        lambda d: set_first(d["decoded"], 0),
    ],
    ids=["answer-true", "answer-false", "cached-bool", "decoded-true", "decoded-false"],
)
def test_transcript_loader_refuses_json_booleans(edit):
    # True == 1 in Python, so such a file would load equal to the original
    # yet not write back byte for byte
    t = retrieve(Params(3, 2), 0, F(1, 7), 1)
    assert transcript_from_dict(file_dict(t)) == t
    data = file_dict(t)
    edit(data)
    text = json.dumps(data)
    assert "true" in text or "false" in text
    with pytest.raises(ValueError, match="bits"):
        transcript_from_dict(json.loads(text))


def test_simulate_out_writes_format_2(tmp_path, capsys):
    out = tmp_path / "t.json"
    code, _, _ = run(
        ["simulate", "--k", "4", "--n", "2", "--r", "1/50", "--theta", "1",
         "--seed", "5", "--out", str(out)],
        capsys,
    )
    assert code == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["format"] == 2
    assert all(type(x) is int for eqs in data["per_db"] for eq in eqs for x in eq)
    assert load_transcript(str(out)) == retrieve(Params(4, 2), 1, F(1, 50), 5)


def test_transcript_loader_says_it_reads_format_2_only():
    # A format-1 file carried no "format" key.
    data = file_dict(retrieve(Params(3, 2), 0, F(1, 7), 1))
    del data["format"]
    with pytest.raises(ValueError, match="only format 2 is read"):
        transcript_from_dict(data)


def test_transcript_loader_refuses_oversized_length_before_unpacking():
    # Unpacking three messages of 2**24 bits would take 48 MiB of 0/1 bytes.
    data = file_dict(retrieve(Params(3, 2), 0, F(1, 7), 1))
    data["length"] = 2**24
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="simulation budget"):
            transcript_from_dict(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize(
    "edit,cause",
    [(lambda d: d.pop("cache"), KeyError), (lambda d: d.update(answers=7), TypeError)],
    ids=["missing-key", "wrong-type"],
)
def test_transcript_loader_chains_malformed_input(edit, cause):
    data = file_dict(retrieve(Params(3, 2), 0, F(1, 7), 1))
    edit(data)
    with pytest.raises(ValueError) as err:
        transcript_from_dict(data)
    assert isinstance(err.value.__cause__, cause)


def test_simulate_composed_ratio(capsys):
    code, text, _ = run(
        ["simulate", "--k", "3", "--n", "2", "--r", "1/5", "--theta", "2",
         "--seed", "7"],
        capsys,
    )
    assert code == 0
    assert "cost = 1" in text


def test_simulate_corner_4_3(capsys):
    code, text, _ = run(
        ["simulate", "--k", "4", "--n", "3", "--s", "2", "--theta", "1",
         "--seed", "1"],
        capsys,
    )
    assert code == 0
    assert "cost = 18/17" in text


def test_audit_oversized_refused_before_allocating(capsys):
    # L(1) = 5 592 405 at (12, 4): `retrieve` refuses k·L(1) from the
    # arguments alone.
    tracemalloc.start()
    try:
        code, _, err = run(
            ["audit", "--k", "12", "--n", "4", "--s", "1", "--seed", "1"], capsys
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "error" in err
    assert peak < 2**20


def test_budget_refusal_states_sizes_not_numbers(capsys):
    # L(1) at k = 1000 has hundreds of digits; the refusal gives k·L's size
    code, _, err = run(
        ["simulate", "--k", "1000", "--n", "2", "--s", "1", "--theta", "0",
         "--seed", "1"],
        capsys,
    )
    assert code == 2
    assert "simulation budget" in err
    assert all(len(line) < 200 for line in err.splitlines())


def test_audit_structural_certifies_every_desired_index(monkeypatch, capsys):
    def leaky_at_theta_2(p, theta, drawn):
        plan = compose_plans(p, theta, drawn)
        return drop_undesired_equation(plan) if theta == 2 else plan

    monkeypatch.setattr(cli, "compose_plans", leaky_at_theta_2)
    code, text, _ = run(
        ["audit", "--k", "3", "--n", "2", "--s", "1", "--seed", "3"], capsys
    )
    assert code == 1
    assert "detail:    theta 2: db 0:" in text
    assert "verdict:   FAIL" in text


def test_audit_draws_one_plan_for_every_desired_index(monkeypatch, capsys):
    # draw_plan takes no desired index, so one draw serves all k of them
    drawn = []

    def counted(*args):
        drawn.append(draw_plan(*args))
        return drawn[-1]

    monkeypatch.setattr(protocol, "draw_plan", counted)
    code, _, _ = run(
        ["audit", "--k", "4", "--n", "2", "--s", "1", "--seed", "3"], capsys
    )
    assert code == 0
    assert len(drawn) == 1
    monkeypatch.undo()
    for theta in range(4):
        shipped = retrieve(Params(4, 2), theta, F(1, 15), 3).plan
        assert compose_plans(Params(4, 2), theta, drawn[0]) == shipped


@pytest.mark.parametrize("s", [0, 1, 2])
def test_audit_structural_mode(s, capsys):
    code, text, _ = run(
        ["audit", "--k", "3", "--n", "2", "--s", str(s), "--seed", "3"], capsys
    )
    assert code == 0
    assert text == "distance:  0\nper-db:    0, 0\nverdict:   pass\n"


def test_audit_past_255_messages(capsys):
    code, text, _ = run(
        ["audit", "--k", "257", "--n", "2", "--s", "256", "--seed", "1"], capsys
    )
    assert code == 0
    assert text == "distance:  0\nper-db:    0, 0\nverdict:   pass\n"


# Every corner with k <= 4, and n = 3 up to k = 3, each with its own seed.
AUDIT_GRID = [
    (k, n, s, 100 * k + 10 * n + s)
    for k in (2, 3, 4)
    for n in ((2, 3) if k <= 3 else (2,))
    for s in range(k)
]


@pytest.mark.parametrize("k,n,s,seed", AUDIT_GRID)
def test_audit_verdict_matches_distributional_audits(k, n, s, seed, capsys):
    # A database sees its corner layout renamed within each message and then
    # shuffled; neither step changes what the certificate checks, so the
    # walks over those steps reach the same verdict as one shipped plan.
    code, _, _ = run(
        ["audit", "--k", str(k), "--n", str(n), "--s", str(s), "--seed", str(seed)],
        capsys,
    )
    assert code == 0
    p = Params(k, n)
    assert montecarlo_privacy(p, s, 1000, seed).passed
    try:
        exact = enumerate_privacy(p, s)
    except ValueError as err:
        assert "too large for exact enumeration" in str(err)
    else:
        assert exact.passed


def no_arithmetic(*_):
    raise AssertionError("arithmetic started")


def patch_out_arithmetic(monkeypatch):
    for name in ("corner_points", "curve_grid", "curve_point", "inner_corner", "gap_at",
                 "worst_case_gap"):
        monkeypatch.setattr(cli, name, no_arithmetic)


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--k", "10000", "--n", "2"],
        ["bounds", "--k", "100", "--n", str(10**1000)],
        ["curve", "--k", "4", "--n", "2", "--samples", str(10**12)],
        ["gap", "--n", "2", "--kmax", "100000"],
        ["gap", "--n", "2", "--kmax", "2000", "--asymptotic"],
    ],
    ids=["bounds-k", "bounds-n", "curve-samples", "gap-kmax", "gap-asymptotic"],
)
def test_oversized_exact_arithmetic_refused(argv, monkeypatch, capsys):
    # each would run for minutes; the budget refuses it before any arithmetic
    patch_out_arithmetic(monkeypatch)
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert f"over the budget of {cli.MAX_EXACT_WORK}" in err


def readme_refused_examples():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    budget = readme[readme.index("cachepir.cli.MAX_EXACT_WORK"):]
    examples = budget[budget.index("for example"):budget.index(";")]
    return [shlex.split(command) for command in re.findall(r"`([^`]+)`", examples)]


@pytest.mark.parametrize(
    "argv",
    readme_refused_examples(),
    ids=lambda argv: "_".join(arg.lstrip("-") for arg in argv),
)
def test_readme_refused_examples_are_refused(argv, monkeypatch, capsys):
    patch_out_arithmetic(monkeypatch)
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert f"over the budget of {cli.MAX_EXACT_WORK}" in err


@pytest.mark.parametrize(
    "command,flag,n,edge",
    [("bounds", "--k", 2, 1471), ("gap", "--kmax", 2, 1343), ("bounds", "--k", 4, 1162)],
    ids=["bounds-n2", "gap-n2", "bounds-n4"],
)
def test_budget_edge_sizes_n_by_ceil_log2(command, flag, n, edge, monkeypatch, capsys):
    # n^k has k·⌈log2 n⌉ bits: at n = 2 and 4 the edge is k = 1471 and 1162,
    # as at n = 3, not the 1162 and 1020 that bit_length(n) gave
    patch_out_arithmetic(monkeypatch)
    argv = [command, "--n", str(n), flag]
    with pytest.raises(AssertionError, match="arithmetic started"):
        run(argv + [str(edge)], capsys)
    code, _, err = run(argv + [str(edge + 1)], capsys)
    assert code == 2
    assert f"over the budget of {cli.MAX_EXACT_WORK}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--k", "390", "--n", "2"],
        ["gap", "--n", "2", "--kmax", "300", "--asymptotic"],
    ],
    ids=["bounds-k390", "gap-asymptotic-kmax300"],
)
def test_budget_admits_commands_that_run_fast(argv, capsys):
    # each runs in about 0.1 s: a ratio's cost has no factor of k
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--k", "4", "--n", str(10**3000), "--r", "1/7"],
        ["curve", "--k", "4", "--n", str(10**1500), "--samples", "2"],
        ["gap", "--n", str(10**1500), "--kmax", "4"],
    ],
    ids=["bounds", "curve", "gap"],
)
def test_astronomical_n_refused_before_output(argv, monkeypatch, capsys):
    # within the work budget, but its values would pass Python's limit on
    # int-to-str conversion halfway through the output
    patch_out_arithmetic(monkeypatch)
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "error: n of" in err and "get_int_max_str_digits" in err


def no_corner_arithmetic(*_):
    raise AssertionError("corner arithmetic started")


def test_large_k_ratio_refused_before_corner_arithmetic(monkeypatch, capsys):
    # below r_{k-1} = 1/(1 + n) every split is at least L(k-2) bits long,
    # so k·L(k-2) is refused from (k, n) alone
    monkeypatch.setattr(bounds, "corner_point", no_corner_arithmetic)
    code, out, err = run(
        ["simulate", "--k", "30000", "--n", "2", "--r", "1/100", "--theta", "0",
         "--seed", "1"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "simulation budget" in err


def test_large_k_corner_refused_computing_only_that_corner(monkeypatch, capsys):
    # every corner s <= k - 2 is at least L(k - 2) bits long, so corner 1 at
    # k = 30 000 is refused from (k, n) alone: not even that corner is computed
    for module in (bounds, protocol):
        monkeypatch.setattr(module, "corner_point", no_corner_arithmetic)
    for command in (["simulate", "--theta", "0"], ["audit"]):
        code, out, err = run(
            [*command, "--k", "30000", "--n", "2", "--s", "1", "--seed", "1"], capsys
        )
        assert code == 2, command
        assert out == ""
        assert "simulation budget" in err


def test_transcript_claiming_large_k_refused_before_corner_arithmetic(monkeypatch):
    # a small file that claims k = 30 000 messages of 7 bits is within the
    # budget as recorded, but its ratio's split is not
    data = file_dict(retrieve(Params(3, 2), 0, F(1, 7), 1))
    k = 30_000
    data["k"] = k
    data["messages"] += data["messages"][:1] * (k - 3)
    data["cache"]["indices"] += data["cache"]["indices"][:1] * (k - 3)
    data["cache"]["values"] += data["cache"]["values"][:1] * (k - 3)
    monkeypatch.setattr(bounds, "corner_point", no_corner_arithmetic)
    with pytest.raises(ValueError, match="simulation budget"):
        transcript_from_dict(data)


def test_gap_kmax_below_2_exits_2(capsys):
    # refused by Params, as any k below 2
    code, out, err = run(["gap", "--n", "2", "--kmax", "1"], capsys)
    assert (code, out) == (2, "")
    assert "k must be at least 2" in err


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("cachepir ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert main(argv[1:]) == 0, argv


def test_gap_table_and_asymptotic(capsys):
    code, text, _ = run(["gap", "--n", "2", "--kmax", "4", "--asymptotic"], capsys)
    assert code == 0
    assert "gap=2/35" in text
    assert "argmax r = 1/15" in text
    assert "max gap  = 1/6" in text


def test_gap_monotone_report(capsys):
    code2, text2, _ = run(["gap", "--n", "2", "--kmax", "12", "--asymptotic"], capsys)
    code3, text3, _ = run(["gap", "--n", "3", "--kmax", "12", "--asymptotic"], capsys)
    assert code2 == code3 == 0

    def worst(text):
        line = next(l for l in text.splitlines() if "max gap" in l)
        return F(line.split("=")[1].split("(")[0].strip())

    assert worst(text3) < worst(text2)
