"""Scalar bound functions: the implicit root s(d, k, eps), the dimension-drop
functions t, the Euclidean-to-dyadic depth map, and the headline constants.

s(d, k, eps) is the largest real solution of

    (1 - eps) log( (2^d - 1) sum_{i=1..k} 2^{-s i} / (1 - eps) )
        + eps log(1/eps)  =  s eps log(2^k),

which is the supremum of entropy-to-Lyapunov ratios over porous splits.  The
left side is strictly decreasing in s and the right side nondecreasing, so
the equation has a unique root in [0, d] for eps in [0, 2^{-kd}], found by
bisection.  At eps = 0, where 0 log 0 = 0, the equation reduces to

    (2^d - 1) sum_{i=1..k} 2^{-s i}  =  1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

LOG2 = math.log(2.0)

_BISECT_TOL = 1e-12
_BISECT_MAX_ITER = 200
#: Largest ``solve`` or ``hmin`` table grid; each solve point is one bisection.
MAX_TABLE_POINTS = 100_000


def psi(t: float) -> float:
    """The entropy summand t log(1/t), with the 0 log 0 = 0 convention."""
    if t < 0.0:
        raise ValueError(f"psi needs t >= 0, got {t}")
    return 0.0 if t == 0.0 else -t * math.log(t)


def _check_eps(d: int, k: int, eps: float) -> None:
    """1 <= d <= 1023, where 2^d - 1 is a float; k >= 1 and k*d <= 1074, where
    2^-kd is a positive float; eps in [0, 2^-kd], which NaN is not."""
    if not (1 <= d <= 1023 and 1 <= k and k * d <= 1074):
        raise ValueError(f"need 1 <= d <= 1023, k >= 1 and k*d <= 1074, got d={d}, k={k}")
    hi = 2.0 ** (-k * d)
    if not 0.0 <= eps <= hi * (1.0 + 1e-12):
        raise ValueError(f"eps must lie in [0, 2^-kd] = [0, {hi}], got {eps}")


def _check_points(points: int) -> None:
    """2 <= points <= MAX_TABLE_POINTS, the grid of a solve or hmin table."""
    if not 2 <= points <= MAX_TABLE_POINTS:
        raise ValueError(f"need 2 <= points <= {MAX_TABLE_POINTS}, got {points}")


def _check_eta(eta: float) -> None:
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")


def _bisect(f, lo: float, hi: float) -> float:
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi >= 0.0:
        # f is strictly decreasing; a nonnegative value at the top of the
        # bracket is float noise at the eps = 2^-kd boundary.
        return hi
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < _BISECT_TOL:
            break
    return 0.5 * (lo + hi)


def solve_s(d: int, k: int, eps: float) -> float:
    """Largest root s in [0, d] of the defining equation above."""
    _check_eps(d, k, eps)
    L = (1 << d) - 1
    c_eps = psi(eps)

    def f(s: float) -> float:
        inner = L * math.fsum(2.0 ** (-s * i) for i in range(1, k + 1)) / (1.0 - eps)
        return (1.0 - eps) * math.log(inner) + c_eps - s * eps * k * LOG2

    return _bisect(f, 0.0, float(d))


def t_dk(d: int, k: int, eps: float) -> float:
    """Dimension drop t(d, k, eps) = d - s(d, k, eps); zero exactly at the
    admissibility boundary eps = 2^-kd and strictly positive below it."""
    return d - solve_s(d, k, eps)


def k_of_alpha(d: int, alpha: float, r: float = 0.25) -> int:
    """Dyadic hole depth matching Euclidean hole size alpha at homothety
    ratio r, a power of two in (0, 1): any ball of radius alpha*r*2^-i
    contains a dyadic cube of side 2^-(i+k) for k = ceil(log2(sqrt(d) /
    (alpha r))).  r = 1/4 is the route of the dimension bound."""
    if not 0.0 < alpha <= 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2], got {alpha}")
    if not 0.0 < r < 1.0 or math.frexp(r)[0] != 0.5:
        raise ValueError(f"ratio must be a power of two in (0, 1), got {r}")
    return math.ceil(math.log2(math.sqrt(d) / (alpha * r)))


def t_dalpha(d: int, alpha: float, eps: float) -> float:
    """Euclidean dimension drop: 2^-d t(d, k(alpha), eps)."""
    return 2.0 ** -d * t_dk(d, k_of_alpha(d, alpha), eps)


#: Largest d at which ``c_const`` is a normal float; from d = 136 on the
#: constant's denominator exceeds the largest float.
_C_CONST_LAST_D = 135


def c_const(d: int) -> float:
    """The dimension-dependent constant 2 / (5 log2 2^{4d} d^{d/2}); 0.0 for
    d > 135, where it is below the smallest normal float."""
    _check_eps(d, 1, 0.0)
    if d > _C_CONST_LAST_D:
        return 0.0
    return math.ldexp(2.0 / (5.0 * LOG2 * d ** (d / 2.0)), -4 * d)


@dataclass(frozen=True)
class BoundReport:
    """A packing-dimension upper bound d - eta * t and its surroundings.

    ``eps_threshold_provable`` is 2^-dk, below which the drop is strictly
    positive.  On the alpha route, ``eps_threshold_stated`` is the looser
    closed-form threshold 2^-2d d^{-d/2} alpha^d, and ``consistency_ok``
    records whether 2^-kd >= 2^-3d d^{-d/2} alpha^d, the inequality that makes
    the c_d constant valid.  Both thresholds are reported because the ceiling
    in k(alpha) can push 2^-dk below the closed form.
    """

    d: int
    k: int
    eta: float
    eps: float
    c_d: float
    t: float
    bound: float
    eps_threshold_provable: float
    eps_threshold_stated: float | None = None
    consistency_ok: bool | None = None


def dimension_bound(
    d: int,
    eta: float,
    eps: float,
    k: int | None = None,
    alpha: float | None = None,
) -> BoundReport:
    """Evaluate the applicable bound d - eta * t for the given route.

    Pass ``k`` for the dyadic route (t = t_dk) or ``alpha`` for the Euclidean
    route (t = 2^-d t_dk at k = k(alpha)); exactly one of them.
    """
    if (k is None) == (alpha is None):
        raise ValueError("pass exactly one of k or alpha")
    _check_eta(eta)
    if alpha is not None:
        kk = k_of_alpha(d, alpha)
        t = t_dalpha(d, alpha, eps)
        stated = 2.0 ** (-2 * d) * d ** (-d / 2.0) * alpha**d
        consistent = 2.0 ** (-kk * d) >= 2.0 ** (-3 * d) * d ** (-d / 2.0) * alpha**d
    else:
        kk = k
        t = t_dk(d, k, eps)
        stated = None
        consistent = None
    return BoundReport(
        d=d,
        k=kk,
        eta=eta,
        eps=eps,
        c_d=c_const(d),
        t=t,
        bound=d - eta * t,
        eps_threshold_provable=2.0 ** (-d * kk),
        eps_threshold_stated=stated,
        consistency_ok=consistent,
    )


def solve_table(d: int, k: int, points: int = 101) -> list[dict]:
    """Rows of the dimension-drop curve over the scaled abscissa
    eps_scaled = eps * 2^kd in [0, 1]."""
    _check_points(points)
    _check_eps(d, k, 0.0)  # d and k, before 2^-kd is formed
    hi = 2.0 ** (-k * d)
    rows = []
    for j in range(points):
        scaled = j / (points - 1)
        eps = scaled * hi
        s = solve_s(d, k, eps)
        rows.append(
            {"d": d, "k": k, "eps": eps, "eps_scaled": scaled, "s": s, "t": d - s}
        )
    return rows
