"""Independent brute-force check of the porous-split entropy-ratio maximum.

The solver in bounds.solve_s claims that the largest entropy-to-Lyapunov
ratio over a porous split equals the root of an implicit equation.  This
module re-derives that value without trusting the equation: direct grid
search over the reduced simplex (per-level masses q_1..q_k plus the hole mass
p <= eps), followed by coordinate-wise golden-section polish, plus the
geometric-decay fixed-point candidate q_i = A 2^{-M i}.

tests/test_golden.py pins the CSV of the default oracle battery and of the
d = 2, k = 3 table at grid 500, so every grid maximum and polished point is
held to the last digit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import LOG2, _check_eps, psi, solve_s

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_TOL = 1e-10

#: Fixed-point iteration M <- (1 - damping) M + damping g(M): damping,
#: tolerance on M, iteration cap.
_DAMPING, _FIXED_POINT_TOL, _FIXED_POINT_MAX_ITER = 0.5, 1e-12, 10_000

#: Largest brute-force mesh, grid^(k-1) points per hole mass.
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
        if any(x < 0.0 for x in self.p):
            raise ValueError("masses must be nonnegative")
        if abs(math.fsum(self.p) - 1.0) > 1e-9:
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
        if any(x < 0.0 for x in self.q) or self.p < 0.0:
            raise ValueError("masses must be nonnegative")
        L = (1 << self.d) - 1
        if abs(L * math.fsum(self.q) + self.p - 1.0) > 1e-9:
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


def maximize_bruteforce(
    d: int,
    k: int,
    eps: float,
    grid: int = 500,
) -> BruteForceResult:
    """Grid-maximize the reduced objective over the constrained simplex, then
    sharpen with coordinate-wise golden-section ascent.

    ``grid`` counts points per free dimension.  The grid evaluates
    min(grid, 65) hole masses p on [0, eps] (only p = 0 when eps = 0) times
    the points of the free level masses q_1..q_{k-1}, each on
    linspace(0, (1 - p)/L, grid), whose indices sum to at most grid - 1:
    C(grid + k - 2, k - 1) points per hole mass, in row-major order, with q_k
    taking the rest of the budget.  Ties go to the first point in that order.
    The search stays independent of the implicit-equation solver: nothing
    here assumes the geometric-decay structure of the maximizer.
    """
    _check_eps(d, k, eps)
    if d > 2 or k > 3:
        raise ValueError(
            f"grid^k enumeration for d={d}, k={k} is expensive; "
            f"the brute force covers d <= 2 and k <= 3"
        )
    if grid < 2 or grid ** (k - 1) > MAX_GRID_POINTS:
        raise ValueError(f"need grid >= 2 and grid^(k-1) <= {MAX_GRID_POINTS}, "
                         f"got grid={grid}, k={k}")
    L = (1 << d) - 1
    p_grid = np.linspace(0.0, eps, min(grid, 65)) if eps > 0.0 else np.array([0.0])
    # Free-mass index tuples in row-major order, built once.  An index sum
    # of grid or more overshoots the budget by at least budget / (grid - 1),
    # far beyond the 1e-15 the float test forgives, so those are left out.
    idx = np.indices((grid,) * (k - 1)).reshape(k - 1, grid ** (k - 1))
    idx = idx[:, idx.sum(axis=0) < grid]
    zero = np.zeros(idx.shape[1])

    best_val = -math.inf
    best_free: tuple[float, ...] | None = None
    for p in p_grid:
        budget = (1.0 - p) / L
        a = np.linspace(0.0, budget, grid)
        q = [a[col] for col in idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            a_ent = _xlogx(a)
            # Sums add q_1, ..., q_k left to right; the golden digests pin this.
            total, ent, lin = zero, zero, zero
            for i, (col, qi) in enumerate(zip(idx, q), start=1):
                total = total + qi
                ent = ent + a_ent[col]
                lin = lin + qi * i
            keep = total <= budget + 1e-15
            qk = budget - total
            ent = ent + _xlogx(qk)
            lin = lin + qk * k
            num = L * (-ent) + psi(float(p))
            den = LOG2 * (L * lin + k * float(p))
        vals = np.where(keep, num / den, -np.inf)
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val = float(vals[j])
            best_free = (*(float(qi[j]) for qi in q), float(p))

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
