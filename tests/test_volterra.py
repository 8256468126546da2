"""Grid functions, the improper integral, residuals, solver, and the probe."""

import dataclasses
import json
import types
import weakref

import numpy as np
import pytest

from eulerphi import decomp, volterra
from eulerphi.cli import main
from eulerphi.coeffs import make_e2, phi_table
from eulerphi.decomp import f1_closed, f1_values
from eulerphi.errors import (
    AnchorOutOfRange,
    BadGrid,
    NotHomogeneous,
    NotIntegrableNearZero,
    OutOfMemory,
    XBeyondGrid,
)
from eulerphi.products import compute_constants
from eulerphi.volterra import (
    GridFunction,
    grid_function,
    grid_points,
    homogeneous_probe,
    improper_integral,
    make_grid,
    residual,
    solution_family,
    solve_from_e2,
)


@pytest.fixture(scope="module")
def small_setup(zeta_spec):
    table = phi_table(zeta_spec, 25, mode="float")
    cons = compute_constants(zeta_spec)
    return table, cons, make_e2(table, cons.c)


def zero_e2(xs):
    return np.zeros_like(np.asarray(xs, dtype=np.float64))


def test_make_grid_shape_and_offset():
    xs = make_grid(5.0, 0.1)
    assert xs[0] == pytest.approx(0.05)
    assert np.allclose(np.diff(xs), 0.1)
    assert xs[-1] <= 5.0
    # half-offset points stay clear of the integers
    dist = np.abs(xs - np.round(xs))
    assert dist.min() >= 0.05 - 1e-12
    with pytest.raises(BadGrid):
        make_grid(0.05, 0.1)


def test_make_grid_is_one_read_only_array():
    # a run's pre-check, samples and GridFunctions on one (X, h) share the
    # grid, so none of them may move another's points
    xs = make_grid(3.0, 0.01)
    assert make_grid(3.0, 0.01) is xs
    with pytest.raises(ValueError, match="read-only"):
        xs[0] = 1.0
    g = GridFunction(values=np.zeros(len(xs)), X=3.0, h=0.01)
    assert g.xs is xs
    assert grid_function(3.0, lambda t: t, 0.01).xs is xs


def test_make_grid_frees_its_grid_with_its_last_holder():
    # the last grid is shared while a caller holds it, and freed with its
    # last holder, not kept for the process (160 MB at the grid cap)
    xs = make_grid(4.0, 0.001)
    g = GridFunction(values=np.zeros(len(xs)), X=4.0, h=0.001)
    gone = weakref.ref(xs)
    del xs
    shared = make_grid(4.0, 0.001) is g.xs
    assert shared
    del g
    assert gone() is None
    xs = make_grid(4.0, 0.001)
    assert not xs.flags.writeable
    assert xs.tobytes() == ((np.arange(4000) + 0.5) * 0.001).tobytes()


@pytest.mark.parametrize("op", ["residual", "solve", "probe"])
def test_volterra_command_builds_its_grid_once(op, monkeypatch, capsys):
    built = []

    def ref(xs):
        built.append(len(xs))
        return weakref.ref(xs)

    monkeypatch.setattr(volterra, "weakref", types.SimpleNamespace(ref=ref))
    args = ["volterra", "--op", op, "--X", "20", "--h", "0.01"]
    assert main(args + ([] if op == "residual" else
                        ["--anchor", "1.5=auto"])) in (0, 1)
    assert built == [2000]


def test_grid_points_cap():
    cap = volterra._GRID_POINTS_CAP
    assert grid_points(cap * 0.5, 0.5) == cap
    for X, h in ((cap * 0.5, 0.5 - 1e-9), (1.0, 1e-300), (float("inf"), 1.0)):
        with pytest.raises(OutOfMemory):
            grid_points(X, h)
    for X, h in ((1.0, 0.0), (float("nan"), 0.1), (0.12, 0.1)):
        with pytest.raises(BadGrid):
            grid_points(X, h)


def test_grid_function_validation():
    # h = 0.3 puts 1.05 within 0.05 of 1: refused where (X, h) enter
    with pytest.raises(BadGrid, match="avoid integers"):
        make_grid(2.0, 0.3)
    with pytest.raises(BadGrid, match="avoid integers"):
        grid_function(2.0, lambda xs: xs, 0.3)
    with pytest.raises(BadGrid):
        GridFunction(values=np.zeros(1), X=0.5, h=0.5)     # one point
    for values in (np.zeros(3), np.zeros(5), np.zeros((4, 1))):
        with pytest.raises(BadGrid, match="values on a grid of 4 points"):
            GridFunction(values=values, X=2.0, h=0.5)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(BadGrid, match="finite"):
            GridFunction(values=np.array([0, 1, bad, 0]), X=2.0, h=0.5)
    g = GridFunction(values=np.zeros(4, dtype=complex), X=2.0, h=0.5)
    assert g.xs.tolist() == [0.25, 0.75, 1.25, 1.75]
    g = GridFunction([0, 1, 2, 3], 2.0, 0.5)    # values become an array
    assert isinstance(g.values, np.ndarray) and len(g) == 4
    with pytest.raises(AttributeError):         # xs is derived, not set
        g.xs = np.zeros(4)
    g = grid_function(2.0, lambda xs: xs, 1e-3)
    assert len(g) == len(g.xs) == 2000
    assert g.xs.tobytes() == make_grid(2.0, 1e-3).tobytes()


def test_improper_integral_linear_integrand():
    # g(t) = t: int_0^x g/t dt = x, exact for the trapezoid rule
    g = grid_function(2.0, lambda xs: xs, 1e-3)
    assert improper_integral(g, 2.0) == pytest.approx(2.0, abs=1e-12)
    assert improper_integral(g, 0.3141) == pytest.approx(0.3141, abs=1e-12)


def test_improper_integral_quadratic_integrand():
    # g(t) = t^2: g/t = t is linear, so every cell's line is exact, the
    # first one on [0, x_0] and the last one past x_{n-1} included
    h = 1e-3
    g = grid_function(2.0, lambda xs: xs ** 2, h)
    for x in (2e-4, 0.5, 1.37, 1.9998, 2.0):
        assert improper_integral(g, x) == pytest.approx(x * x / 2, abs=1e-12)


def test_improper_integral_domain():
    g = grid_function(2.0, lambda xs: xs, 1e-3)
    with pytest.raises(XBeyondGrid):
        improper_integral(g, 2.5)
    with pytest.raises(XBeyondGrid):
        improper_integral(g, 0.0)


def test_not_integrable_near_zero():
    g = grid_function(2.0, lambda xs: np.ones_like(xs), 1e-3)
    with pytest.raises(NotIntegrableNearZero):
        improper_integral(g, 1.0)


def test_residual_of_shifted_candidate():
    # candidate 0.01 x^2 against e2 = 0 leaves residual 0.01 x^2 / 2
    X, h = 5.0, 1e-3
    rep = residual(lambda xs: 0.01 * xs ** 2, zero_e2, X, h)
    want = 0.005 * rep.xs ** 2
    assert np.max(np.abs(rep.residuals - want)) < 1e-6
    assert rep.sup == pytest.approx(0.005 * rep.xs[-1] ** 2, rel=1e-3)
    assert rep.argmax == pytest.approx(rep.xs[-1])


def test_residual_grid_candidate_must_match():
    sol = solve_from_e2(zero_e2, 5.0, 1e-3, (1.0, 2.0))
    with pytest.raises(BadGrid):
        residual(sol, zero_e2, 5.0, 2e-3)
    with pytest.raises(BadGrid):
        residual(sol, zero_e2, 6.0, 1e-3)
    # an X that ends the same grid is the same grid
    assert residual(sol, zero_e2, 5.0004, 1e-3).sup < 1e-12


def test_solve_zero_e2_gives_homogeneous_member():
    # e2 = 0 anchored at (1.5, 3) must return exactly K x with K = 2
    sol = solve_from_e2(zero_e2, 5.0, 1e-3, (1.5, 3.0))
    assert np.max(np.abs(sol.values - 2.0 * sol.xs)) < 1e-12


def test_solve_polynomial_e2_from_any_anchor():
    # E2 = -c t^2 + a t^3 is solved by F = -2c x^2 + (3a/2) x^3 + b x; E2/t^2
    # is linear, so the trapezoid and the in-cell interpolation are exact,
    # and so is the first or last cell's line before the first grid point
    # or past the last one
    c, b = 0.3, 0.7
    for a, x0 in ((0.0, 2.5e-4), (0.1, 2.5e-4), (0.1, 1.2342), (0.0, 5.0),
                  (0.1, 5.0)):
        def exact(x):
            return -2 * c * x ** 2 + 1.5 * a * x ** 3 + b * x

        sol = solve_from_e2(lambda t: -c * t ** 2 + a * t ** 3, 5.0, 1e-3,
                            (x0, exact(x0)))
        assert np.max(np.abs(sol.values - exact(sol.xs))) < 1e-10


def test_solve_anchor_validation():
    with pytest.raises(AnchorOutOfRange):
        solve_from_e2(zero_e2, 5.0, 1e-3, (6.0, 1.0))
    with pytest.raises(AnchorOutOfRange):
        solve_from_e2(zero_e2, 5.0, 1e-3, (0.0, 1.0))
    with pytest.raises(BadGrid):
        solve_from_e2(zero_e2, 5.0, 0.2, (1.0, 1.0))   # too few points below 1


def test_homogeneous_probe_recovers_slope():
    g = grid_function(4.0, lambda xs: 2.0 * xs, 1e-3)
    a, dev = homogeneous_probe(g)
    assert a == pytest.approx(2.0, abs=1e-12)
    assert dev < 1e-10


def test_homogeneous_probe_from_anchored_solve():
    # anchor (1, 2) pins the member 2x of the homogeneous family
    sol = solve_from_e2(zero_e2, 5.0, 1e-3, (1.0, 2.0))
    a, dev = homogeneous_probe(sol)
    assert a == pytest.approx(2.0, abs=1e-9)
    assert dev < 1e-9


def test_homogeneous_probe_rejects_quadratic():
    g = grid_function(4.0, lambda xs: xs ** 2, 1e-3)
    with pytest.raises(NotHomogeneous):
        homogeneous_probe(g)


def test_family_members_differ_by_ax(small_setup):
    table, cons, _ = small_setup
    fam0 = solution_family(table, cons, 0.0)
    fam3 = solution_family(table, cons, 3.0)
    xs = make_grid(20.0, 0.01)
    assert np.allclose(fam3(xs) - fam0(xs), 3.0 * xs, rtol=0, atol=1e-12)


def test_family_residual_small(small_setup):
    table, cons, e2p = small_setup
    fam = solution_family(table, cons, 0.0)
    rep = residual(fam, e2p, 20.0, 1e-3)
    assert rep.sup < 1e-11   # rounding: the quadrature is exact for it


RATIONAL_ROOTS = ["--product", "custom", "--degree", "2", "--roots",
                  '{"2":[0.5,0.25],"3":[0.5,0.25]}', "--default", "one"]
COMPLEX_ROOTS = ["--product", "custom", "--degree", "2", "--roots",
                 '{"2":[[0,1],[0,-1]],"3":[[0.5,0.5],[0.5,-0.5]]}']


@pytest.mark.parametrize("args", [
    ["--X", "100", "--h", "0.001"],
    ["--X", "100", "--h", "0.02"],
    ["--X", "100", "--h", "0.05"],
    ["--X", "100", "--h", "0.1"],
    ["--product", "dirichlet", "--kronecker", "-4", "--X", "300",
     "--h", "0.01"],
    RATIONAL_ROOTS + ["--X", "100", "--h", "0.02"],
    COMPLEX_ROOTS + ["--X", "100", "--h", "0.02"],
], ids=["zeta-h0.001", "zeta-h0.02", "zeta-h0.05", "zeta-h0.1", "kronecker-4",
        "custom-rational", "custom-complex"])
def test_family_passes_at_every_h(args, capsys):
    # f1 + A is linear on (0, 1), which the first cell's line integrates
    # exactly over [0, x_0], and has slope -2C on every cell past it, each
    # integer at a cell midpoint: the quadrature is exact for the family,
    # and its residual is rounding at any h
    assert main(["volterra", "--op", "residual", *args, "--format",
                 "json"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["sup"] <= 1e-9


def test_family_of_a_changed_table_fails(small_setup):
    # F and E2 from one table satisfy the equation whatever its phi, so the
    # check must bite when F alone comes from a table with phi(7) + 1:
    # F = x f1 moves by x/7 past 7 and its integral of F/t by (x - 7)/7
    table, cons, e2p = small_setup
    phi = table.phi.copy()
    phi[7] += 1
    changed = dataclasses.replace(table, phi=phi)
    both = residual(solution_family(changed, cons), make_e2(changed, cons.c),
                    20.0, 1e-2)
    assert both.sup < 1e-9
    rep = residual(solution_family(changed, cons), e2p, 20.0, 1e-2)
    assert rep.sup == pytest.approx(1.0, abs=1e-9)
    assert np.abs(rep.residuals[rep.xs < 7]).max() < 1e-9


def test_solver_recovers_family(small_setup):
    table, cons, e2p = small_setup
    x0 = 1.5
    v0 = x0 * f1_closed(x0, table, cons)
    sol = solve_from_e2(e2p, 10.0, 1e-3, (x0, v0))
    base = sol.xs * f1_values(sol.xs, table, cons)
    mask = sol.xs >= 0.5
    assert np.max(np.abs(sol.values - base)[mask]) < 1e-4


def test_residual_keeps_its_samples(small_setup):
    # the report's candidate and E2 columns are the providers' own values
    table, cons, e2p = small_setup
    fam = solution_family(table, cons, 0.5)
    rep = residual(fam, e2p, 20.0, 1e-3)
    assert rep.values.tobytes() == fam(rep.xs).tobytes()
    assert rep.e2.tobytes() == e2p(rep.xs).tobytes()
    sol = solve_from_e2(e2p, 20.0, 1e-3, (1.5, 2.0))
    rep = residual(sol, e2p, 20.0, 1e-3)
    assert rep.xs is sol.xs and rep.values is sol.values
    assert rep.e2.tobytes() == e2p(sol.xs).tobytes()


def test_volterra_residual_samples_f1_once(monkeypatch, capsys):
    # the report's F1 column is the residual's own sample of the family
    calls = []

    def counted(xs, table, constants):
        calls.append(len(xs))
        return f1_values(xs, table, constants)

    monkeypatch.setattr(decomp, "f1_values", counted)
    assert main(["volterra", "--op", "residual", "--X", "5",
                 "--h", "0.01"]) == 0
    capsys.readouterr()
    assert calls == [500]
