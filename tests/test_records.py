"""Record types: which are dataclasses, and what every other record keeps of
the dataclass behaviour it replaced."""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction

import numpy as np
import pytest

import eulerphi
from eulerphi.cli import RunConfig
from eulerphi.coeffs import GrowthScanReport, SeriesCheckReport
from eulerphi.decomp import DecompositionReport, F1OneSided
from eulerphi.products import (
    Constants,
    ValueWithBound,
    build_character,
    dirichlet_product,
)
from eulerphi.volterra import GridFunction, ResidualReport


def _classes() -> dict:
    """"module.name" -> every class defined in a module of the package."""
    out = {}
    for info in pkgutil.iter_modules(eulerphi.__path__, "eulerphi."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                out[f"{module.__name__}.{name}"] = obj
    return out


def test_only_the_tables_are_dataclasses():
    # @dataclass generates and compiles each class's methods at import,
    # about 1 ms a class in every run; the tables stay dataclasses, the
    # other records are NamedTuples or __slots__ classes
    classes = _classes()
    assert "eulerphi.products.ValueWithBound" in classes
    assert "eulerphi.cli.RunConfig" in classes
    assert sorted(name for name, cls in classes.items()
                  if dataclasses.is_dataclass(cls)) == [
        "eulerphi.coeffs.CoefficientTable", "eulerphi.coeffs.TotientTable"]


_MOD4 = build_character(kronecker=-4)
_CHI = ("CharacterSpec(modulus=4, values=(0, 1, 0, -1), is_real=True, "
        "is_principal=False)")
_HALF = "ValueWithBound(value=0.5, bound=0.125, bound_kind='rigorous')"
_QUARTER = "ValueWithBound(value=0.25, bound=0.0625, bound_kind='heuristic')"
_XS = np.array([0.25, 0.75])
_VALUES = np.array([1.0, 2.0, 3.0, 4.0])

# name -> (a record, built afresh each call from equal fields; whether
# its fields are hashable; its repr, as the dataclass it replaced spelled it)
RECORDS = {
    "ValueWithBound": (
        lambda: ValueWithBound(0.5, 0.125), True, _HALF),
    "Constants": (
        lambda: Constants(c=ValueWithBound(0.5, 0.125),
                          a1=ValueWithBound(0.25, 0.0625, "heuristic"),
                          a2=ValueWithBound(0.5, 0.125)),
        True, f"Constants(c={_HALF}, a1={_QUARTER}, a2={_HALF})"),
    "CharacterSpec": (
        lambda: build_character(kronecker=-4), True, _CHI),
    "EulerProductSpec": (
        lambda: dirichlet_product(_MOD4), True,
        f"EulerProductSpec(kind='dirichlet', degree=1, character={_CHI}, "
        f"roots=None, default_rule='zero')"),
    "SeriesCheckReport": (
        lambda: SeriesCheckReport(s=3.0, N=10, lhs=1.25, rhs=1.5, diff=0.25,
                                  bound=0.5, bound_kind="heuristic", ok=True),
        True,
        "SeriesCheckReport(s=3.0, N=10, lhs=1.25, rhs=1.5, diff=0.25, "
        "bound=0.5, bound_kind='heuristic', ok=True)"),
    "GrowthScanReport": (
        lambda: GrowthScanReport(x_min=2, x_max=10, sup=0.5, argmax=3,
                                 rows=((2, 0.25, 0.125), (3, 1.0, 0.5))),
        True,
        "GrowthScanReport(x_min=2, x_max=10, sup=0.5, argmax=3, "
        "rows=((2, 0.25, 0.125), (3, 1.0, 0.5)))"),
    "F1OneSided": (
        lambda: F1OneSided(left=Fraction(1, 2), right=Fraction(3, 2),
                           half=Fraction(1), jump=Fraction(1)),
        True,
        "F1OneSided(left=Fraction(1, 2), right=Fraction(3, 2), "
        "half=Fraction(1, 1), jump=Fraction(1, 1))"),
    "DecompositionReport": (
        lambda: DecompositionReport(
            x=2.5, e2=ValueWithBound(0.5, 0.125),
            arithmetic_part=ValueWithBound(0.25, 0.0625, "heuristic"),
            analytic_part=ValueWithBound(0.25, 0.0625, "heuristic"),
            residual=0.0, exact_verdict="not-applicable"),
        True,
        f"DecompositionReport(x=2.5, e2={_HALF}, arithmetic_part={_QUARTER}, "
        f"analytic_part={_QUARTER}, residual=0.0, "
        f"exact_verdict='not-applicable')"),
    # array fields: equal as the same arrays, and unhashable
    "ResidualReport": (
        lambda: ResidualReport(xs=_XS, values=_XS, e2=_XS, residuals=_XS,
                               sup=0.75, argmax=0.75),
        False,
        "ResidualReport(xs=array([0.25, 0.75]), values=array([0.25, 0.75]), "
        "e2=array([0.25, 0.75]), residuals=array([0.25, 0.75]), sup=0.75, "
        "argmax=0.75)"),
    "GridFunction": (
        lambda: GridFunction(values=_VALUES, X=2.0, h=0.5), False,
        "GridFunction(values=array([1., 2., 3., 4.]), X=2.0, h=0.5)"),
    "RunConfig": (
        lambda: RunConfig(command="growth", options={"X": 100.0}), False,
        "RunConfig(command='growth', options={'X': 100.0})"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_read_only_values(name):
    make, hashable, want = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    assert repr(a) == want
    first = next(iter(inspect.signature(type(a)).parameters))
    value = getattr(a, first)
    with pytest.raises(AttributeError):
        setattr(a, first, None)
    with pytest.raises(AttributeError):
        a.unknown_field = None
    assert getattr(a, first) is value
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    for twin in (copy.copy(a), copy.deepcopy(a),
                 pickle.loads(pickle.dumps(a))):
        assert type(twin) is type(a) and repr(twin) == want


def test_value_with_bound_refuses_a_negative_bound():
    with pytest.raises(ValueError, match="nonnegative"):
        ValueWithBound(1.0, -1.0)
    assert ValueWithBound(1.0, 0.0).bound_kind == "rigorous"

