"""Argument contract: every int argument of `bounds`, `random_store`, `prefetch`
and `montecarlo_privacy`, and the public names it covers.

Each int argument refuses a float, a bool and a value out of its range with a
ValueError that names the argument, and no result for int and `Fraction`
inputs is a float.  The package exports exactly its modules' `__all__`.
"""

import dataclasses
import re
import types
from fractions import Fraction as F

import pytest

import cachepir
from cachepir import audit, bounds, protocol, scheme
from cachepir.audit import montecarlo_privacy
from cachepir.bounds import Params
from cachepir.protocol import prefetch, random_store

P = Params(4, 2)
R = F(1, 2)
STORE = random_store(3, 7, 1)

# function, argument, call with that argument's value, a valid value, values
# out of range (binom's k has none: C(n, k) is 0 outside 0..n)
INT_ARGUMENTS = [
    ("Params", "k", lambda v: Params(v, 2), 4, [1]),
    ("Params", "n", lambda v: Params(4, v), 2, [1]),
    ("binom", "n", lambda v: bounds.binom(v, 2), 4, [-1]),
    ("binom", "k", lambda v: bounds.binom(4, v), 2, []),
    *[
        (name, "s", lambda v, f=getattr(bounds, name): f(P, v), 1, [-1, 4])
        for name in ("corner_point", "corner_ratio", "corner_message_length")
    ],
    ("inner_corner", "i", lambda v: bounds.inner_corner(P, v), 1, [0, 4]),
    ("collinearity_check", "s", lambda v: bounds.collinearity_check(P, v), 1, [0, 4]),
    *[
        (name, "n", lambda v, f=getattr(bounds, name): f(v, R), 2, [1])
        for name in ("exact_tradeoff_k3", "asymptotic_outer", "asymptotic_gain")
    ],
    ("worst_case_gap", "n", bounds.worst_case_gap, 2, [1]),
    ("random_store", "k", lambda v: random_store(v, 7, 1), 3, [0]),
    ("random_store", "length", lambda v: random_store(3, v, 1), 7, [0]),
    ("prefetch", "bits_per_message", lambda v: prefetch(STORE, v, 1), 1, [-1, 8]),
    ("montecarlo_privacy", "trials", lambda v: montecarlo_privacy(Params(3, 2), 1, v, 1),
     1000, [999]),
]

# the public names of `bounds` that take no int argument, each called on
# valid int and Fraction inputs; the value types are results, not entry points
NO_INT_ARGUMENTS = {
    "corner_points": lambda: bounds.corner_points(P),
    "outer_bound": lambda: bounds.outer_bound(P, R),
    "inner_bound": lambda: bounds.inner_bound(P, R),
    "known_prefetch_cost": lambda: bounds.known_prefetch_cost(P, R),
    "gap": lambda: bounds.gap(P, R),
    "curve_point": lambda: bounds.curve_point(P, 1),
    "matching_region": lambda: bounds.matching_region(P),
}
VALUE_TYPES = {"CornerPoint", "CurvePoint"}


def refusals():
    for func, arg, call, valid, out_of_range in INT_ARGUMENTS:
        bad = [("float", float(valid)), ("half", valid + 0.5), ("bool", True)]
        bad += [(f"range{v}", v) for v in out_of_range]
        for kind, value in bad:
            yield pytest.param(call, arg, value, id=f"{func}-{arg}-{kind}")


@pytest.mark.parametrize("call,arg,value", refusals())
def test_int_argument_refused_naming_it(call, arg, value):
    with pytest.raises(ValueError) as err:
        call(value)
    assert re.search(rf"\b{arg}\b", str(err.value)), str(err.value)


def test_every_public_name_of_bounds_is_covered():
    covered = {func for func, *_ in INT_ARGUMENTS} | set(NO_INT_ARGUMENTS) | VALUE_TYPES
    assert set(bounds.__all__) <= covered


def test_package_exports_exactly_the_modules_all():
    union = set().union(*(m.__all__ for m in (bounds, scheme, protocol, audit)))
    exported = {
        name for name, value in vars(cachepir).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == union
    assert sorted(cachepir.__all__) == sorted(union)


def floats(value) -> bool:
    """True when `value` is a float or holds one."""
    if isinstance(value, float):
        return True
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    return isinstance(value, (tuple, list)) and any(map(floats, value))


@pytest.mark.parametrize(
    "call",
    [pytest.param(lambda c=call, v=valid: c(v), id=f"{func}-{arg}")
     for func, arg, call, valid, _ in INT_ARGUMENTS]
    + [pytest.param(call, id=name) for name, call in NO_INT_ARGUMENTS.items()],
)
def test_no_result_is_a_float(call):
    assert not floats(call())
