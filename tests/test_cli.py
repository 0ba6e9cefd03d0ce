"""CLI contract: exit codes, output values, curve and transcript files."""

import json
import tracemalloc
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from cachepir import (
    Params,
    decode,
    drop_undesired_equation,
    outer_bound,
    retrieve,
    verify_cost,
)
from cachepir import cli
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
    for bad in ("0.3", "1/7/2", "a", "1/ 7", ""):
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
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--k", "3", "--n", "2", "--r", "0.3"])  # float ratio
    assert exc.value.code == 2
    code, _, err = run(["bounds", "--k", "1", "--n", "2"], capsys)
    assert code == 2
    assert "error" in err


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
    t = load_transcript(str(out))
    assert decode(t.plan, t.answers, t.cache) == t.decoded
    assert verify_cost(t)
    assert t.cost == F(8, 7)


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
    ],
)
def test_transcript_loader_refuses_inconsistent_file(edit):
    data = file_dict(retrieve(Params(3, 2), 0, F(1, 7), 1))
    assert data["per_db_downloads"] == [4, 4] and data["cost"] == "8/7"
    edit(data)
    with pytest.raises(ValueError):
        transcript_from_dict(data)


def format_1_dict(t):
    """The transcript as a format-1 file held it: [m, j] pairs, no "format" key."""
    data = file_dict(t)
    del data["format"]
    data["per_db"] = [
        [[list(divmod(x, t.length)) for x in eq] for eq in eqs] for eqs in data["per_db"]
    ]
    return data


@pytest.mark.parametrize(
    "k,n,r,theta,seed",
    [(4, 3, F(2, 17), 1, 42), (4, 2, F(4501, 9000), 3, 7), (3, 2, F(1, 5), 2, 9)],
)
def test_format_1_and_2_files_load_to_equal_transcripts(k, n, r, theta, seed):
    t = retrieve(Params(k, n), theta, r, seed)
    old, new = format_1_dict(t), file_dict(t)
    assert "format" not in old and new["format"] == 2
    assert transcript_from_dict(old) == transcript_from_dict(new) == t


def alias_into_next_message(data):
    """Rename (m, j), the last pair of an equation with m < k-1, to (m, L + 3)."""
    eq = next(eq for eq in data["per_db"][0] if eq[-1][0] < K - 1)
    eq[-1][1] = L + 3
    return eq


def test_format_1_pair_past_its_message_is_not_aliased():
    # (m, L + 3) would read as m·L + L + 3 = (m + 1)·L + 3: a canonical
    # reference to bit 3 of the next message, which nothing else checks.
    t = retrieve(Params(3, 2), 0, F(1, 7), 1)
    data = format_1_dict(t)
    eq = alias_into_next_message(data)
    with pytest.raises(ValueError, match=r"outside 3 messages of 7 bits"):
        transcript_from_dict(data)
    eq[-1][:] = divmod(eq[-1][0] * L + eq[-1][1], L)  # the aliased pair itself
    transcript_from_dict(data)


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["per_db"][0][0][-1].__setitem__(1, -1),
        lambda d: d["per_db"][0][0][-1].__setitem__(0, K),
        lambda d: d["per_db"][0][0][-1].__setitem__(1, 4.0),
        lambda d: d["per_db"][0][0][0].__setitem__(0, False),
        lambda d: d["per_db"][0][0][-1].append(0),
        lambda d: d["per_db"][0][0].__setitem__(0, 4),
        lambda d: d["per_db"][0][0].reverse(),
        lambda d: d["per_db"][0][0].append(list(d["per_db"][0][0][-1])),
        lambda d: d["per_db"][0].__setitem__(0, frozenset(map(tuple, d["per_db"][0][0]))),
        lambda d: d.update(format=1.0),
    ],
    ids=["negative-bit", "message-k", "float-bit", "bool-message", "triple",
         "bare-int", "out-of-order", "repeated-reference", "frozenset", "float-format"],
)
def test_format_1_loader_refuses_bad_pairs(edit):
    data = format_1_dict(retrieve(Params(3, 2), 0, F(1, 7), 1))
    transcript_from_dict(data)
    edit(data)
    with pytest.raises(ValueError):
        transcript_from_dict(data)


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


def test_audit_exact_mode(capsys):
    code, text, _ = run(
        ["audit", "--k", "2", "--n", "2", "--s", "1", "--mode", "exact",
         "--seed", "1"],
        capsys,
    )
    assert code == 0
    assert "verdict:   pass" in text


def test_audit_exact_oversized_exits_2(capsys):
    code, _, err = run(
        ["audit", "--k", "3", "--n", "2", "--s", "1", "--mode", "exact",
         "--seed", "1"],
        capsys,
    )
    assert code == 2
    assert "outcomes" in err


@pytest.mark.parametrize("mode", ["exact", "montecarlo", "structural"])
def test_audit_oversized_refused_before_allocating(mode, capsys):
    # L(1) = 5 592 405 at (12, 4); the outcome count and k·L(1) are refused
    # from the arguments alone.
    tracemalloc.start()
    try:
        code, _, err = run(
            ["audit", "--k", "12", "--n", "4", "--s", "1", "--mode", mode,
             "--trials", "1000", "--seed", "1"],
            capsys,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "error" in err
    assert peak < 2**20


def test_audit_structural_certifies_every_desired_index(monkeypatch, capsys):
    def leaky_at_theta_2(p, theta, r, seed):
        plan = retrieve(p, theta, r, seed).plan
        return SimpleNamespace(plan=drop_undesired_equation(plan) if theta == 2 else plan)

    monkeypatch.setattr(cli, "retrieve", leaky_at_theta_2)
    code, text, _ = run(
        ["audit", "--k", "3", "--n", "2", "--s", "1", "--mode", "structural",
         "--seed", "3"],
        capsys,
    )
    assert code == 1
    assert "detail:    theta 2: db 0:" in text
    assert "verdict:   FAIL" in text


@pytest.mark.parametrize("s", [0, 1, 2])
def test_audit_structural_mode(s, capsys):
    code, text, _ = run(
        ["audit", "--k", "3", "--n", "2", "--s", str(s), "--mode", "structural",
         "--seed", "3"],
        capsys,
    )
    assert code == 0
    assert "verdict:   pass" in text


def test_audit_montecarlo_mode(capsys):
    code, text, _ = run(
        ["audit", "--k", "3", "--n", "2", "--s", "1", "--mode", "montecarlo",
         "--trials", "1000", "--seed", "5"],
        capsys,
    )
    assert code == 0
    assert "verdict:   pass" in text


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--k", "10000", "--n", "2"],
        ["bounds", "--k", "100", "--n", str(10**1000)],
        ["curve", "--k", "4", "--n", "2", "--samples", str(10**12)],
        ["gap", "--n", "2", "--kmax", "100000"],
        ["gap", "--n", "2", "--kmax", "230", "--asymptotic"],
    ],
    ids=["bounds-k", "bounds-n", "curve-samples", "gap-kmax", "gap-asymptotic"],
)
def test_oversized_exact_arithmetic_refused(argv, capsys):
    # each would run for minutes; the budget refuses it before any arithmetic
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert f"over the budget of {cli.MAX_EXACT_WORK}" in err


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
