"""Independent brute-force check of the porous-split entropy-ratio maximum.

The solver in bounds.solve_s claims that the largest entropy-to-Lyapunov
ratio over a porous split equals the root of an implicit equation.  This
module re-derives that value without trusting the equation: direct grid
search over the reduced simplex (per-level masses q_1..q_k plus the hole mass
p <= eps), followed by coordinate-wise golden-section polish, plus the
geometric-decay fixed-point candidate q_i = A 2^{-M i}.

The grid search is exact branch and bound: it skips a tile of grid points
only where an upper bound on the tile's values lies below a value the grid
attains, so its maximum and argmax are those of the full enumeration, while
at d = 2, k = 3, grid 500 it evaluates about 15 % of the points.

tests/test_golden.py pins the CSV of the default oracle battery, of the
d = 2, k = 3 table at grid 500 and of the d = 1, k = 3 table at grid 1000,
so every grid maximum and polished point is held to the last digit.
"""

from __future__ import annotations

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
    grid: int


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


def _tiles(grid: int, k: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Square tiles of the (k-1)-dimensional free-index grid, side 16 and at
    most 64 per axis: the side, and the first and last index per axis (rows)
    of each tile (columns, row-major) that holds a feasible point, which is
    the tiles whose first point is feasible."""
    m = k - 1
    side = max(16, -(-grid // 64))
    per_axis = -(-grid // side)
    first = np.indices((per_axis,) * m).reshape(m, per_axis**m) * side
    first = first[:, first.sum(axis=0) < grid]
    return side, first, np.minimum(first + side, grid) - 1


def _tile_bounds(lo, hi, p, k: int, L: int) -> np.ndarray:
    """An upper bound on _grid_values over each tile, widened far beyond the
    rounding of either, from the least and largest q_i of each tile (row i
    of lo and hi) and hole masses p broadcasting against each row.  psi is
    concave with its top at 1/e, so the numerator is
    at most psi at 1/e clipped to each q_i's range, q_k's range being
    B - sum q_i for the budget B; the denominator's lin = kB - sum (k - i)
    q_i is least at the largest q_i, and at least B where sum q_i <= B."""
    budget = (1.0 - p) / L

    def peak(lo, hi):
        return -_xlogx(np.clip(1.0 / math.e, lo, hi))

    qk_lo = np.maximum(budget - hi.sum(axis=0), 0.0)
    qk_hi = np.maximum(budget - lo.sum(axis=0), 0.0)
    num = L * (peak(lo, hi).sum(axis=0) + peak(qk_lo, qk_hi)) - _xlogx(p)
    lin = k * budget - sum((k - i) * hi_i for i, hi_i in enumerate(hi, start=1))
    lin = np.maximum(lin, budget)
    return num / (LOG2 * (L * lin + k * p)) * (1.0 + 1e-9) + 1e-12


def _grid_max(d: int, k: int, eps: float, grid: int) -> tuple[float, tuple[float, ...]]:
    """The grid maximum of maximize_bruteforce and its free coordinates
    (q_1..q_{k-1}, p), by branch and bound over _tiles.  The cut is the best
    value at the tiles' first points over all p, so the grid attains it; a
    tile whose bound falls below the cut holds only values below the
    maximum and is never evaluated."""
    L = (1 << d) - 1
    p_grid = np.linspace(0.0, eps, min(grid, 65)) if eps > 0.0 else np.array([0.0])
    p_list, m = p_grid.tolist(), k - 1
    side, first, last = _tiles(grid, k)
    # q_i at each tile's first and last index, per p: (k - 1) x P x tiles
    lo, hi = np.empty((2, m, len(p_grid), first.shape[1]))
    for r, p in enumerate(p_list):
        a = np.linspace(0.0, (1.0 - p) / L, grid)
        lo[:, r], hi[:, r] = a[first], a[last]
    psi_p = np.array([psi(p) for p in p_list])
    bound = _tile_bounds(lo, hi, p_grid[:, None], k, L)
    cut = _grid_values(lo, p_grid[:, None], psi_p[:, None], k, L).max()

    offsets = np.indices((side,) * m).reshape(m, side**m)
    best_val = -math.inf
    best_free: tuple[float, ...] = ()
    for r, p in enumerate(p_list):
        live = first[:, bound[r] >= cut]
        cols = (live[:, :, None] + offsets[:, None, :]).reshape(m, live.shape[1] * side**m)
        # An index sum of grid or more overshoots the budget by at least
        # budget / (grid - 1), far beyond the 1e-15 the float test forgives,
        # so those points are left out.
        cols = cols[:, cols.sum(axis=0) < grid]
        if cols.shape[1] == 0:
            continue
        a = np.linspace(0.0, (1.0 - p) / L, grid)
        vals = _grid_values(a[cols], p, psi_p[r], k, L)
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            # among ties, the lowest row-major rank, as a full enumeration picks
            j = min(np.flatnonzero(vals == vals[j]), key=lambda t: tuple(cols[:, t]))
            best_val = float(vals[j])
            best_free = (*(float(a[col[j]]) for col in cols), p)
    return best_val, best_free


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
    to the first point in that order.  The maximum is exact although most
    points go unevaluated: a tile of points is skipped only when an upper
    bound on its values lies below a value the grid attains (see _grid_max).
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
    return BruteForceResult(value=fz, argmax=ReducedPoint(d, k, *point(z)), grid=grid)


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


def compare(d: int, k: int, eps: float, grid: int = 500) -> dict:
    """One comparison row: brute force vs fixed-point candidate vs solver."""
    bf = maximize_bruteforce(d, k, eps, grid)
    fp = fixed_point_candidate(d, k, eps)
    sv = solve_s(d, k, eps)
    return {
        "d": d,
        "k": k,
        "eps": eps,
        "value_bruteforce": bf.value,
        "value_candidate": fp.value,
        "value_solver": sv,
        "gap": max(abs(bf.value - sv), abs(fp.value - sv)),
        "argmax": bf.argmax,
    }
