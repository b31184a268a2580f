"""Independent brute-force check of the porous-split entropy-ratio maximum.

The solver in bounds.solve_s claims that the largest entropy-to-Lyapunov
ratio over a porous split equals the root of an implicit equation.  This
module re-derives that value without trusting the equation: direct grid
search over the reduced simplex (per-level masses q_1..q_k plus the hole mass
p <= eps), followed by coordinate-wise golden-section polish, plus the
geometric-decay fixed-point candidate q_i = A 2^{-M i}.

The grid search is exact branch and bound: it skips a tile of grid points
only where an upper bound on the tile's values lies below a value the grid
attains, so its maximum and argmax are those of the full enumeration.  With
tiles halved level by level and a tangent-plane bound of slack O(h^2) in the
tile width h, it evaluates about 0.2 % of the points at d = 2, k = 3,
grid 500 and eps 2^-10.

tests/test_golden.py pins the CSV of the default oracle battery, of the
d = 2, k = 3 table at grid 500 and of the d = 1, k = 3 table at grid 1000,
so every grid maximum and polished point is held to the last digit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import LOG2, _check_eps, psi, solve_s
from .dyadic import _index

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_TOL = 1e-10

#: Fixed-point iteration M <- (1 - damping) M + damping g(M): damping,
#: tolerance on M, iteration cap.
_DAMPING, _FIXED_POINT_TOL, _FIXED_POINT_MAX_ITER = 0.5, 1e-12, 10_000

#: Largest brute-force mesh: grid^(k-1) points per hole mass, and grid.
MAX_GRID_POINTS = 10**6


def alpha_vector(d: int, k: int) -> tuple[float, ...]:
    """Relative side lengths of porous-split offspring: 2^d - 1 copies of
    2^-j for j = 1..k-1, then 2^d copies of 2^-k (non-hole cubes plus the
    hole, which sits last)."""
    _check_eps(d, k, 0.0)
    L = (1 << d) - 1
    out: list[float] = []
    for j in range(1, k):
        out.extend([2.0**-j] * L)
    out.extend([2.0**-k] * (L + 1))
    return tuple(out)


@dataclass(frozen=True)
class RawVector:
    """A mass vector over the (2^d - 1)k + 1 porous-split offspring; the hole
    is the last coordinate."""

    d: int
    k: int
    p: tuple[float, ...]

    def __post_init__(self):
        n = ((1 << self.d) - 1) * self.k + 1
        if len(self.p) != n:
            raise ValueError(f"need {n} masses for d={self.d}, k={self.k}")
        # written so that NaN fails each test
        if any(not x >= 0.0 for x in self.p):
            raise ValueError("masses must be nonnegative")
        if not abs(math.fsum(self.p) - 1.0) <= 1e-9:
            raise ValueError(f"masses sum to {math.fsum(self.p)!r}, not 1")


def raw_objective(v: RawVector) -> float:
    """sum psi(p_i) / sum p_i log(1/alpha_i); the value lies in [0, d]."""
    num = math.fsum(psi(x) for x in v.p)
    den = math.fsum(x * -math.log(a) for x, a in zip(v.p, alpha_vector(v.d, v.k)))
    if den == 0.0:
        raise ValueError("degenerate mass vector: zero Lyapunov denominator")
    return num / den


def reduce_within_levels(v: RawVector) -> RawVector:
    """Average the masses within each side-length level (hole untouched).

    This never decreases the objective: the entropy numerator rises while the
    denominator is level-wise constant, and all constraints are preserved.
    """
    L = (1 << v.d) - 1
    out: list[float] = []
    for j in range(v.k):
        block = v.p[j * L : (j + 1) * L]
        avg = math.fsum(block) / L
        out.extend([avg] * L)
    out.append(v.p[-1])
    return RawVector(v.d, v.k, tuple(out))


@dataclass(frozen=True)
class ReducedPoint:
    """Per-level masses q_1..q_k plus the hole mass p, with
    (2^d - 1) sum q_i = 1 - p."""

    d: int
    k: int
    q: tuple[float, ...]
    p: float

    def __post_init__(self):
        if len(self.q) != self.k:
            raise ValueError(f"need {self.k} level masses")
        if any(not x >= 0.0 for x in (*self.q, self.p)):
            raise ValueError("masses must be nonnegative")
        L = (1 << self.d) - 1
        if not abs(L * math.fsum(self.q) + self.p - 1.0) <= 1e-9:
            raise ValueError("level masses do not satisfy L sum q = 1 - p")

    def to_raw(self) -> RawVector:
        L = (1 << self.d) - 1
        flat: list[float] = []
        for qi in self.q:
            flat.extend([qi] * L)
        flat.append(self.p)
        return RawVector(self.d, self.k, tuple(flat))


def reduced_objective(d: int, k: int, q, p: float) -> float:
    """g_p(q) = (L sum psi(q_i) + psi(p)) / (log2 (L sum i q_i + k p))."""
    L = (1 << d) - 1
    num = L * math.fsum(psi(qi) for qi in q) + psi(p)
    den = LOG2 * (L * math.fsum((i + 1) * qi for i, qi in enumerate(q)) + k * p)
    if den == 0.0:
        raise ValueError("degenerate point: zero Lyapunov denominator")
    return num / den


def _xlogx(c: np.ndarray) -> np.ndarray:
    """c log c elementwise, with 0 log 0 = 0."""
    return c * np.where(c > 0.0, np.log(np.where(c > 0.0, c, 1.0)), 0.0)


@dataclass(frozen=True)
class BruteForceResult:
    value: float
    argmax: ReducedPoint


def _golden_section(f, lo: float, hi: float) -> float:
    """Argmax of a unimodal-ish f on [lo, hi], to within _GOLDEN_TOL."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d_ = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d_)
    while b - a > _GOLDEN_TOL:
        if fc >= fd:
            b, d_, fd = d_, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d_, fd
            d_ = a + _GOLDEN * (b - a)
            fd = f(d_)
    return 0.5 * (a + b)


def _grid_values(q: np.ndarray, p, psi_p, k: int, L: int) -> np.ndarray:
    """The objective at grid points with level masses q_1..q_{k-1} (the
    k - 1 rows of ``q``) and hole mass p, psi_p = psi(p), where p and psi_p
    broadcast against each row; -inf where q_1..q_{k-1} overshoot the budget
    (1 - p)/L by more than 1e-15."""
    budget = (1.0 - p) / L
    zero = np.zeros(q.shape[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        # Sums add q_1, ..., q_k left to right; the golden digests pin this.
        total, ent, lin = zero, zero, zero
        for i, qi in enumerate(q, start=1):
            total = total + qi
            ent = ent + _xlogx(qi)
            lin = lin + qi * i
        keep = total <= budget + 1e-15
        qk = budget - total
        ent = ent + _xlogx(qk)
        lin = lin + qk * k
        num = L * (-ent) + psi_p
        den = LOG2 * (L * lin + k * p)
    return np.where(keep, num / den, -np.inf)


def _axis(i, budget, grid: int):
    """np.linspace(0.0, budget, grid)[i] bit for bit without building the
    axis: i * (budget / (grid - 1)) + 0.0, and budget itself at the last i."""
    return np.where(i == grid - 1, budget, i * (budget / (grid - 1)) + 0.0)


def _tile_bounds(lo, hi, p, k: int, L: int) -> np.ndarray:
    """An upper bound on _grid_values over each tile, widened far beyond the
    rounding of either, from the least and largest q_i of each tile (row i
    of lo and hi) and hole masses p broadcasting against each row.  psi is
    concave with its top at 1/e, so the numerator is at most psi at 1/e
    clipped to each q_i's range, q_k's range being B - sum q_i for the
    budget B; the denominator's lin = kB - sum (k - i) q_i is least at the
    largest q_i, and at least B where sum q_i <= B.  Defined on every tile,
    with slack O(h) in the tile width h."""
    budget = (1.0 - p) / L

    def peak(lo, hi):
        return -_xlogx(np.clip(1.0 / math.e, lo, hi))

    qk_lo = np.maximum(budget - hi.sum(axis=0), 0.0)
    qk_hi = np.maximum(budget - lo.sum(axis=0), 0.0)
    num = L * (peak(lo, hi).sum(axis=0) + peak(qk_lo, qk_hi)) - _xlogx(p)
    lin = k * budget - sum((k - i) * hi_i for i, hi_i in enumerate(hi, start=1))
    lin = np.maximum(lin, budget)
    return num / (LOG2 * (L * lin + k * p)) * (1.0 + 1e-9) + 1e-12


def _tangent_bounds(lo, hi, p, k: int, L: int) -> np.ndarray:
    """An upper bound on _grid_values over each tile with slack O(h^2) in the
    tile width h, widened as _tile_bounds is, or inf where it is undefined;
    arguments as for _tile_bounds.  The numerator N is concave in the free
    q_i, so it lies below its tangent plane T at the tile's centre c, where
    dN/dq_i = -L (log c_i - log c_k).  The denominator D is affine, and a
    ratio of affine maps peaks at a vertex, so the largest T/D over the
    tile's corners bounds the tile.  Undefined where c has a zero
    coordinate, c_k <= 0, or D <= 0 at a corner."""
    budget = (1.0 - p) / L
    c = 0.5 * (lo + hi)
    ck = budget - c.sum(axis=0)
    ok = (c > 0.0).all(axis=0) & (ck > 0.0)
    best = np.full(ok.shape, -np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = -L * (np.log(c) - np.log(ck))
        top = -L * (_xlogx(c).sum(axis=0) + _xlogx(ck)) - _xlogx(p)
        for q in itertools.product(*zip(lo, hi)):
            lin = k * budget - sum((k - i) * q_i for i, q_i in enumerate(q, start=1))
            den = LOG2 * (L * lin + k * p)
            ok &= den > 0.0
            tangent = top + sum(s * (q_i - c_i) for s, q_i, c_i in zip(slope, q, c))
            best = np.maximum(best, tangent / den)
    return np.where(ok, best * (1.0 + 1e-9) + 1e-12, np.inf)


def _grid_max(d: int, k: int, eps: float, grid: int) -> tuple[float, tuple[float, ...]]:
    """The grid maximum of maximize_bruteforce and its free coordinates
    (q_1..q_{k-1}, p), by branch and bound over square tiles of the free
    indices, refined level by level for every hole mass p at once.

    It starts from one tile per p of side 2^ceil(log2 grid).  Each level
    evaluates every tile's first point, which raises the cut to the best
    value seen, a value the grid attains; drops each tile whose bound (the
    lesser of _tile_bounds and _tangent_bounds) falls below the cut, as it
    holds only values below the maximum; and splits the rest into half-side
    tiles whose first index sum is below grid.  At side 1 the tiles are the
    grid points that remain, every point with the maximum value among them.
    """
    L, m = (1 << d) - 1, k - 1
    p_grid = np.linspace(0.0, eps, min(grid, 65)) if eps > 0.0 else np.array([0.0])
    psi_p = np.array([psi(p) for p in p_grid.tolist()])
    budgets = (1.0 - p_grid) / L
    side = 1 << (grid - 1).bit_length() if m else 1
    halves = np.indices((2,) * m).reshape(m, 1 << m)
    # tile t: hole mass p_grid[r[t]], free indices first[:, t] + [0, side)^m
    r = np.arange(len(p_grid))
    first = np.zeros((m, len(r)), dtype=np.int64)
    cut = -math.inf
    while True:
        p, budget = p_grid[r], budgets[r]
        lo = _axis(first, budget, grid)
        vals = _grid_values(lo, p, psi_p[r], k, L)
        if side == 1:
            break
        cut = max(cut, vals.max())
        hi = _axis(np.minimum(first + side, grid) - 1, budget, grid)
        bound = np.minimum(_tile_bounds(lo, hi, p, k, L), _tangent_bounds(lo, hi, p, k, L))
        live = bound >= cut
        side //= 2
        first = (first[:, live, None] + halves[:, None, :] * side).reshape(m, -1)
        r = np.repeat(r[live], 1 << m)
        # An index sum of grid or more overshoots the budget by at least
        # budget / (grid - 1), far beyond the 1e-15 the float test forgives,
        # so those points are left out.
        fits = first.sum(axis=0) < grid
        first, r = first[:, fits], r[fits]
    # ties: the first p, then the lowest row-major rank, as a full enumeration
    ties = np.flatnonzero(vals == vals.max())
    j = ties[np.lexsort((*first[::-1, ties], r[ties]))[0]]
    return float(vals[j]), (*(float(q) for q in lo[:, j]), float(p[j]))


def maximize_bruteforce(
    d: int,
    k: int,
    eps: float,
    grid: int = 500,
) -> BruteForceResult:
    """Grid-maximize the reduced objective over the constrained simplex, then
    sharpen with coordinate-wise golden-section ascent.

    ``grid`` counts points per free dimension.  The grid holds min(grid, 65)
    hole masses p on [0, eps] (only p = 0 when eps = 0) times the points of
    the free level masses q_1..q_{k-1}, each on linspace(0, (1 - p)/L, grid),
    whose indices sum to at most grid - 1: C(grid + k - 2, k - 1) points per
    hole mass, in row-major order, with q_k taking the rest of the budget.
    The polish starts from the grid's maximum; ties go to the first p, then
    to the first point in that order.  The maximum is exact although all but
    a small share of the points go unevaluated: a tile of points is skipped
    only when an upper bound on its values lies below a value the grid
    attains, and tiles are halved until they are points (see _grid_max).
    The search stays independent of the implicit-equation solver: nothing
    here assumes the geometric-decay structure of the maximizer.
    """
    _check_eps(d, k, eps)
    if d > 2 or k > 3:
        raise ValueError(
            f"grid^(k-1) enumeration for d={d}, k={k} is expensive; "
            f"the brute force covers d <= 2 and k <= 3"
        )
    if _index(grid, "grid") < 2 or max(grid, grid ** (k - 1)) > MAX_GRID_POINTS:
        raise ValueError(f"need grid >= 2 and max(grid, grid^(k-1)) <= "
                         f"{MAX_GRID_POINTS}, got grid={grid}, k={k}")
    L = (1 << d) - 1
    _, best_free = _grid_max(d, k, eps, grid)

    def point(z) -> tuple[tuple[float, ...], float]:
        """(q, p) at the free coordinates z = (q_1..q_{k-1}, p); q_k takes the
        rest of the budget.  The polish bounds keep every probe feasible up
        to rounding, which the clamp at 0 absorbs."""
        qk = (1.0 - z[-1]) / L - math.fsum(z[:-1])
        return (*z[:-1], max(qk, 0.0)), z[-1]

    def func(z) -> float:
        return reduced_objective(d, k, *point(z))

    z = list(best_free)
    fz = func(z)
    for _ in range(60):
        improved = False
        for i in range(len(z)):
            if i == len(z) - 1:
                hi_i = min(eps, 1.0 - L * math.fsum(z[:-1]))
            else:
                hi_i = (1.0 - z[-1]) / L - (math.fsum(z[:-1]) - z[i])
            if hi_i <= 0.0:
                continue

            def along(x, i=i):
                trial = z.copy()
                trial[i] = x
                return func(trial)

            xi = _golden_section(along, 0.0, hi_i)
            fxi = along(xi)
            if fxi > fz + 1e-14:
                z[i], fz = xi, fxi
                improved = True
        if not improved:
            break
    return BruteForceResult(value=fz, argmax=ReducedPoint(d, k, *point(z)))


@dataclass(frozen=True)
class FixedPointResult:
    point: ReducedPoint
    value: float
    iterations: int


def fixed_point_candidate(d: int, k: int, eps: float) -> FixedPointResult:
    """Iterate M -> g_eps(A(M) 2^{-M i}) to its fixed point.

    The candidate maximizer has per-level masses decaying geometrically with
    the objective value itself as the decay exponent; A normalizes the point
    onto the simplex with hole mass exactly eps.
    """
    _check_eps(d, k, eps)
    L = (1 << d) - 1

    def candidate(m: float) -> tuple[float, ...]:
        """Level masses A 2^{-m i}, with A making L sum q_i = 1 - eps."""
        decay = [2.0 ** (-m * i) for i in range(1, k + 1)]
        a = (1.0 - eps) / (L * math.fsum(decay))
        return tuple(a * x for x in decay)

    m = 0.9 * d
    for it in range(1, _FIXED_POINT_MAX_ITER + 1):
        g = reduced_objective(d, k, candidate(m), eps)
        m_new = (1.0 - _DAMPING) * m + _DAMPING * g
        if abs(m_new - m) < _FIXED_POINT_TOL:
            m = m_new
            break
        m = m_new
    else:
        raise ArithmeticError(
            f"fixed-point iteration did not converge for d={d}, k={k}, eps={eps}"
        )
    point = ReducedPoint(d, k, candidate(m), eps)
    return FixedPointResult(
        point=point, value=reduced_objective(d, k, point.q, point.p), iterations=it
    )


def compare(d: int, k: int, eps: float,
            grid: int = 500) -> tuple[float, float, float, float, ReducedPoint]:
    """One comparison of brute force, fixed-point candidate and solver:
    (value_bruteforce, value_candidate, value_solver, gap, argmax), where gap
    is the larger distance of either value from the solver's and argmax is the
    brute force's ReducedPoint."""
    bf = maximize_bruteforce(d, k, eps, grid)
    fp = fixed_point_candidate(d, k, eps)
    sv = solve_s(d, k, eps)
    return bf.value, fp.value, sv, max(abs(bf.value - sv), abs(fp.value - sv)), bf.argmax
