"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one ``[acceptance] <criterion>: PASS|FAIL`` line (visible
with ``pytest -s``); all comparisons on bound values are exact rational
equalities unless a tolerance is spelled out.
"""

import time
from contextlib import contextmanager
from fractions import Fraction as F

from cachepir import (
    Params,
    asymptotic_outer,
    binom,
    build_corner_plan,
    collinearity_check,
    corner_cost,
    corner_download_total,
    corner_message_length,
    corner_ratio,
    enumerate_privacy,
    exact_tradeoff_k3,
    gap,
    inner_bound,
    known_prefetch_cost,
    matching_region,
    montecarlo_privacy,
    outer_bound,
    prefetch,
    random_store,
    retrieve,
    skip_message_symmetry,
    structural_symmetry,
    worst_case_gap,
)


@contextmanager
def criterion(name):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS ({time.perf_counter() - start:.1f}s)")


def test_c01_corner_value_golden_suite():
    with criterion("1 corner-value golden suite"):
        golden = {
            (3, 2): [(1, F(1, 7), F(8, 7)), (2, F(1, 3), F(2, 3))],
            (4, 2): [
                (1, F(1, 15), F(22, 15)),
                (2, F(1, 5), F(1)),
                (3, F(1, 3), F(2, 3)),
            ],
            (4, 3): [
                (1, F(1, 40), F(27, 20)),
                (2, F(2, 17), F(18, 17)),
                (3, F(1, 4), F(3, 4)),
            ],
        }
        for (k, n), corners in golden.items():
            p = Params(k, n)
            for s, ratio, cost in corners:
                assert corner_ratio(p, s) == ratio
                assert corner_cost(p, s) == cost
        for k in range(2, 11):
            for n in range(2, 6):
                p = Params(k, n)
                assert corner_cost(p, 0) == sum(F(1, n**j) for j in range(k))


def test_c02_k3_exact_tradeoff():
    with criterion("2 exact k=3 tradeoff on 201-point grid"):
        for n in range(2, 7):
            p = Params(3, n)
            for j in range(201):
                r = F(j, 200)
                oracle = exact_tradeoff_k3(n, r)
                assert outer_bound(p, r) == oracle
                assert inner_bound(p, r) == oracle


def test_c03_matching_regions():
    with criterion("3 matching regions and strict medium-ratio gap"):
        for k in range(3, 9):
            for n in range(2, 6):
                p = Params(k, n)
                low, high = matching_region(p)
                for j in range(1, 51):
                    assert gap(p, low * F(j, 50)) == 0
                    assert gap(p, high + (1 - high) * F(j, 50)) == 0
                assert gap(p, F(0)) == 0
                if k >= 4:
                    assert gap(p, (low + high) / 2) > 0


def test_c04_protocol_reliability_and_cost():
    with criterion("4 protocol reliability and exact cost accounting"):
        for k in range(2, 7):
            for n in range(2, 5):
                p = Params(k, n)
                for s in range(k):
                    r = corner_ratio(p, s)
                    expected = corner_download_total(p, s)
                    for theta in range(k):
                        for seed in range(20):
                            t = retrieve(p, theta, r, seed)
                            assert t.decoded == t.store.bits[theta], (k, n, s, theta, seed)
                            assert t.plan.total_downloads == expected
        composed = retrieve(Params(3, 2), 0, F(1, 5), 123)
        assert composed.decoded == composed.store.bits[0]
        assert composed.cost == 1


def test_c05_query_table_census():
    with criterion("5 query-table census for the published corner tables"):
        from collections import Counter

        expected_tables = {
            (3, 2, 1): {(2, (0, 1)): 1, (2, (0, 2)): 1, (2, (1, 2)): 1, (3, (0, 1, 2)): 1},
            (3, 2, 2): {(3, (0, 1, 2)): 1},
            (4, 2, 1): {
                **{(2, p2): 1 for p2 in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]},
                **{(3, p3): 1 for p3 in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]},
                (4, (0, 1, 2, 3)): 1,
            },
            (4, 2, 2): {
                **{(3, p3): 1 for p3 in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]},
                (4, (0, 1, 2, 3)): 1,
            },
            (4, 2, 3): {(4, (0, 1, 2, 3)): 1},
            (4, 3, 1): {
                **{(2, p2): 1 for p2 in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]},
                **{(3, p3): 2 for p3 in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]},
                (4, (0, 1, 2, 3)): 4,
            },
            (4, 3, 2): {
                **{(3, p3): 1 for p3 in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]},
                (4, (0, 1, 2, 3)): 2,
            },
            (4, 3, 3): {(4, (0, 1, 2, 3)): 1},
        }
        for (k, n, s), table in expected_tables.items():
            p = Params(k, n)
            store = random_store(k, corner_message_length(p, s), 1)
            cache = prefetch(store, binom(k - 2, s - 1), 1)
            plan = build_corner_plan(p, s, 0, cache, 1)
            expected = {
                (size, frozenset(sub)): count for (size, sub), count in table.items()
            }
            for eqs in plan.per_db:
                got = Counter((len(eq), frozenset(m for m, _ in eq)) for eq in eqs)
                assert got == expected, (k, n, s)


def test_c06_privacy():
    with criterion("6 privacy: exact enumeration, Monte-Carlo, mutant controls"):
        assert enumerate_privacy(Params(2, 2), 1).distance == 0
        assert enumerate_privacy(Params(3, 2), 2).distance == 0
        for k, n, s in [(3, 2, 1), (4, 2, 2), (4, 3, 1)]:
            report = montecarlo_privacy(Params(k, n), s, 10_000, seed=2024)
            assert report.passed and report.distance < 0.05, (k, n, s)
        mutant_plan = retrieve(Params(3, 2), 0, F(1, 7), 9).plan
        assert not structural_symmetry(skip_message_symmetry(mutant_plan)).passed
        mutant_mc = montecarlo_privacy(
            Params(3, 2), 1, 10_000, seed=2024, mutation=skip_message_symmetry
        )
        assert not mutant_mc.passed


def test_c07_unawareness_gain():
    with criterion("7 strict unawareness gain at r = 1/(1+n)"):
        for k in range(2, 11):
            for n in range(2, 6):
                p = Params(k, n)
                r = F(1, 1 + n)
                assert outer_bound(p, r) == F(n, 1 + n)
                assert outer_bound(p, r) < known_prefetch_cost(p, r)


def test_c08_monotonicity_and_collinearity():
    with criterion("8 collinearity identities and outer monotonicity in k"):
        for k in range(2, 11):
            for n in range(2, 5):
                p = Params(k, n)
                for s in range(1, k):
                    assert collinearity_check(p, s), (k, n, s)
        grid = [F(j, 100) for j in range(101)]
        for n in range(2, 5):
            for k in range(2, 10):
                low, high = Params(k, n), Params(k + 1, n)
                for r in grid:
                    assert outer_bound(high, r) >= outer_bound(low, r)


def test_c09_gap_analysis():
    with criterion("9 worst-case gap and converse value near zero"):
        r_star, delta = worst_case_gap(2, 100)
        assert r_star == F(1, 15)
        assert delta <= F(1, 6)
        deltas = [worst_case_gap(n, 100)[1] for n in range(2, 7)]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))
        value = inner_bound(Params(100, 2), F(1, 127))
        assert round(float(value), 4) == 1.8898


def test_c10_asymptotics():
    with criterion("10 large-k corner costs track the asymptote"):
        for n in (2, 3):
            for share in (F(7, 10), F(9, 10)):
                s = int(share * 500)
                p = Params(500, n)
                diff = abs(corner_cost(p, s) - asymptotic_outer(n, corner_ratio(p, s)))
                assert diff < F(1, 1000), (n, s)
