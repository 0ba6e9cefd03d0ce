"""CLI contract: exit codes, output values, curve and transcript files."""

import json
from fractions import Fraction as F

import pytest

from cachepir import Params, decode, outer_bound, retrieve, verify_cost
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
    t = load_transcript(str(out))
    assert decode(t.plan, [list(a) for a in t.answers], t.cache) == t.decoded
    assert verify_cost(t)
    assert t.cost == F(8, 7)


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
    ],
)
def test_transcript_loader_refuses_inconsistent_file(edit):
    data = transcript_to_dict(retrieve(Params(3, 2), 0, F(1, 7), 1))
    assert data["per_db_downloads"] == [4, 4] and data["cost"] == "8/7"
    edit(data)
    with pytest.raises(ValueError):
        transcript_from_dict(data)


@pytest.mark.parametrize(
    "edit,cause",
    [(lambda d: d.pop("cache"), KeyError), (lambda d: d.update(answers=7), TypeError)],
    ids=["missing-key", "wrong-type"],
)
def test_transcript_loader_chains_malformed_input(edit, cause):
    data = transcript_to_dict(retrieve(Params(3, 2), 0, F(1, 7), 1))
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
