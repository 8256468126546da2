"""Volterra integral equation F(x) - int_0^x F(t)/t dt = E2(x).

Candidate solutions are the one-parameter family (f1(x)+A) x; the homogeneous
equation is solved exactly by A x.  Everything is discretized on a half-offset
grid x_i = (i+1/2) h: E2 and f1 jump exactly at integers, and placing cell
midpoints there keeps the trapezoid rule second order (the two half-cells
around a jump have equal slopes, so their errors cancel).

Picard iteration is useless here: x is an eigenfunction of the integral
operator with eigenvalue 1, so the map does not contract across the solution
family.  The solver instead reduces the equation to the exact ODE form
(H/x)' = E2(x)/x^2 for H = F - E2, giving

    F(x) = E2(x) + x int_{x0}^x E2(t)/t^2 dt + K x,

with K pinned by an anchor value F(x0) = v0.  E2(t)/t^2 is bounded near 0
because E2(t) = -C(F) t^2 below 1, so the improper endpoint is tame.

The improper integral int_0^x g(t)/t dt models w = g/t one way: as the line
through the two points of a cell, the first or last cell beyond either end
of the grid, which is exact on [0, x_0] for the family (f1 + A is linear on
(0, 1)); that w stays bounded is checked over the first ten points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from .errors import (
    AnchorOutOfRange,
    BadGrid,
    NotHomogeneous,
    NotIntegrableNearZero,
    OutOfMemory,
    XBeyondGrid,
)
from .products import _plain

Provider = Callable[[np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

# a cap on the points of one grid, so an oversized X/h fails fast instead of
# thrashing: the costliest op, the probe, peaks at about 80 bytes a point
# (77 measured between 5e5 and 2e6 points), so the cap is about 1.6 GB, the
# memory of a float table at its cap
_GRID_POINTS_CAP = 2 * 10 ** 7


def grid_points(X: float, h: float) -> int:
    """How many half-offset points (i + 1/2) h lie up to X: BadGrid below 2,
    OutOfMemory above the grid cap."""
    if not (h > 0 and X > h):
        raise BadGrid(f"need 0 < h < X, got h = {h}, X = {X}")
    if not X / h <= _GRID_POINTS_CAP:
        raise OutOfMemory(f"grid capped at {_GRID_POINTS_CAP} points, "
                          f"got X/h = {X / h:.6g}")
    n = int(math.floor(X / h - 0.5 + 1e-9)) + 1
    if n < 2:
        raise BadGrid(f"grid for X = {X}, h = {h} has fewer than 2 points")
    return n


@lru_cache(maxsize=1)
def make_grid(X: float, h: float) -> np.ndarray:
    """Half-offset points (i + 1/2) h up to X, as a read-only array.

    E2 and f1 jump at the integers, so every point must lie at least h/2
    (within 0.2%) from one; an h that breaks this is a BadGrid.  The last
    grid is kept, so a run's checks, samples and GridFunctions on one
    (X, h) share one array, which no caller can write.
    """
    xs = np.arange(grid_points(X, h), dtype=np.float64)
    xs += 0.5
    xs *= h
    # in place: a grid of 2e7 points is 160 MB
    gap = np.round(xs)
    gap -= xs
    if np.abs(gap, out=gap).min() < 0.499 * h:
        raise BadGrid(f"grid points of h = {h} must avoid integers by at "
                      f"least h/2")
    xs.flags.writeable = False
    return xs


@dataclass(frozen=True)
class GridFunction:
    """Values on the half-offset grid x_i = (i + 1/2) h over (0, X].

    The points xs are make_grid(X, h), taken here, so they are the grid by
    construction; only the values are checked: one finite value a point.
    """

    values: np.ndarray
    X: float
    h: float
    xs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        xs = make_grid(self.X, self.h)
        values = np.asarray(self.values)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", values)
        if values.shape != xs.shape:
            raise BadGrid(f"{values.shape} values on a grid of {len(xs)} "
                          f"points")
        if not np.isfinite(values).all():
            raise BadGrid("values must be finite")

    def __len__(self):
        return len(self.xs)


def grid_function(X: float, provider: Provider, h: float) -> GridFunction:
    """A provider's values on the (X, h) grid."""
    return GridFunction(values=provider(make_grid(X, h)), X=X, h=h)


# ---------------------------------------------------------------------------
# Solution family
# ---------------------------------------------------------------------------

def solution_family(table, constants, A=0.0) -> Provider:
    """The member xs -> (f1(xs) + A) xs of the candidate family, on the
    closed-form f1 of a float totient table; the member is 0 at 0."""
    from .coeffs import _require_mode
    from .decomp import f1_values

    _require_mode(table, "float", "solution_family")

    def member(xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        return xs * f1_values(xs, table, constants) + A * xs

    return member


# ---------------------------------------------------------------------------
# Improper integral int_0^x g(t)/t dt
# ---------------------------------------------------------------------------

def _integrand_check(g: GridFunction) -> np.ndarray:
    w = g.values / g.xs
    m = min(10, len(w))
    head = np.abs(w[:m])
    if head.max() > 10 * head[-1] + 1e-12 * (1 + head.max()):
        raise NotIntegrableNearZero(
            "|g(t)|/t grows toward 0 over the first grid points; "
            "g does not look like O(t)")
    return w


def _trapezoid(w: np.ndarray, h: float) -> np.ndarray:
    """int_{x_0}^{x_i} w dt by the trapezoid rule on a grid of spacing h."""
    return np.concatenate(([0], np.cumsum((w[:-1] + w[1:]) / 2) * h))


def _interpolate(xs: np.ndarray, w: np.ndarray, cum: np.ndarray, h: float,
                 x: float):
    """cum (a running integral of w over xs) carried on to x.

    w is the line through the two points of x's cell, integrated exactly;
    below the first point and past the last one, that cell is the first or
    the last.
    """
    j = int(np.clip(np.searchsorted(xs, x, "right") - 1, 0, len(xs) - 2))
    wx = w[j] + (w[j + 1] - w[j]) * (x - xs[j]) / h
    return cum[j] + (w[j] + wx) / 2 * (x - xs[j])


def _cumulative(g: GridFunction) -> np.ndarray:
    """W_i = int_0^{x_i} g/t dt: the first cell's line, then the trapezoid."""
    w = _integrand_check(g)
    cum = _trapezoid(w, g.h)
    # in place: a second array of the grid's size raises the probe's peak
    cum -= _interpolate(g.xs, w, cum, g.h, 0.0)
    return cum


def improper_integral(g: GridFunction, x: float) -> complex:
    """int_0^x g(t)/t dt for 0 < x <= X, with w = g/t linear on each cell;
    past the last grid point w extends the last cell's line."""
    if x > g.X * (1 + 1e-12):
        raise XBeyondGrid(f"x = {x} beyond grid endpoint X = {g.X}")
    if x <= 0:
        raise XBeyondGrid(f"need x > 0, got {x}")
    return _plain(_interpolate(g.xs, _integrand_check(g), _cumulative(g),
                               g.h, x))


# ---------------------------------------------------------------------------
# Residual of a candidate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    """F - int_0^x F/t - E2 on the grid xs, its sup and where it is taken,
    and what it was built from: the candidate F (values) and E2 (e2)."""

    xs: np.ndarray
    values: np.ndarray
    e2: np.ndarray
    residuals: np.ndarray
    sup: float
    argmax: float


def residual(candidate: Union[GridFunction, Provider],
             e2_provider: Provider, X: float, h: float) -> ResidualReport:
    """Check a candidate against the equation on the (X, h) half-offset grid.

    A provider is sampled on that grid; a GridFunction must have been built
    on it.  E2 is sampled once, and the report keeps both samples.
    """
    if isinstance(candidate, GridFunction):
        if candidate.h != h or len(candidate) != grid_points(X, h):
            raise BadGrid("candidate grid does not match the requested (X, h)")
        g = candidate
    else:
        g = grid_function(X, candidate, h)
    e2 = np.asarray(e2_provider(g.xs))
    res = g.values - _cumulative(g) - e2
    a = np.abs(res)
    i = int(np.argmax(a))
    return ResidualReport(xs=g.xs, values=g.values, e2=e2, residuals=res,
                          sup=float(a[i]), argmax=float(g.xs[i]))


# ---------------------------------------------------------------------------
# Direct solver
# ---------------------------------------------------------------------------

def solve_from_e2(e2_provider: Provider, X: float, h: float,
                  anchor: tuple) -> GridFunction:
    """Solve the equation from E2 samples via the exact ODE reduction.

    anchor = (x0, v0) pins the free homogeneous component:
    F(x) = E2(x) + x int_{x0}^x E2(t)/t^2 dt + K x, K = (v0 - E2(x0))/x0.
    """
    xs = make_grid(X, h)
    if np.count_nonzero(xs < 1) < 10:
        raise BadGrid("need at least 10 grid points below 1; shrink h")
    x0, v0 = anchor
    x0 = float(x0)
    if not (0 < x0 <= X):
        raise AnchorOutOfRange(f"anchor x0 = {x0} outside (0, {X}]")
    e2 = np.asarray(e2_provider(xs))
    w = e2 / (xs * xs)
    cum = _trapezoid(w, h)
    i_from_x0 = cum - _interpolate(xs, w, cum, h, x0)
    e2_at_x0 = np.asarray(e2_provider(np.array([x0])))[0]
    k = (v0 - e2_at_x0) / x0
    values = e2 + xs * i_from_x0 + k * xs
    return GridFunction(values=values, X=X, h=h)


# ---------------------------------------------------------------------------
# Homogeneous structure probe
# ---------------------------------------------------------------------------

def homogeneous_probe(g: GridFunction) -> tuple:
    """Fit g ~ A x and report (A, sup deviation |g - A x|).

    Pre-check: g must satisfy the homogeneous equation (e2 = 0) on its own
    grid within 1e-4 max(1, max |g|), a heuristic that scales with the size
    of g.  A failure raises NotHomogeneous - the numerical witness that only
    A x passes.
    """
    res = np.abs(g.values - _cumulative(g))
    tol = 1e-4 * max(1.0, float(np.max(np.abs(g.values))))
    sup_res = float(res.max())
    if sup_res > tol:
        raise NotHomogeneous(
            f"homogeneous-equation residual {sup_res} exceeds tolerance {tol}")
    xs = g.xs
    a = _plain(np.sum(np.conj(xs) * g.values) / np.sum(xs * xs))
    deviation = float(np.max(np.abs(g.values - a * xs)))
    return a, deviation
