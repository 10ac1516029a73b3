"""Closed forms and an independent force balance for regular-ring systems.

Nothing here imports the program under test.  Rings are tuples
``(kind, mass, radius, phase)`` with kind ``"center"`` or ``"regular"``;
a regular ring has n points at angles ``phase + 2*pi*j/n``.  For a ring
system to be a relative equilibrium every regular ring must rotate at the
same rate, and by the D_n symmetry only the radial balance at one point
per ring has to be checked:

    homogeneous:  omega^2 r_a = sum_j m_j d_j^(2 gamma) (q_a - p_j) . q_a / r_a
    vortex:       omega   r_a = sum_j m_j d_j^(-2)     (q_a - p_j) . q_a / r_a

`implied_rates` returns the right-hand sides divided by r_a, one per
regular ring.
"""

from __future__ import annotations

import math

import numpy as np


def implied_rates(n: int, rings, kind: str, gamma: float = -1.5) -> np.ndarray:
    """omega^2 (homogeneous) or omega (vortex) implied by each regular ring."""
    reg = [r for r in rings if r[0] != "center"]
    center_mass = sum(r[1] for r in rings if r[0] == "center")
    masses, radii, phases = (np.array([r[i] for r in reg], dtype=float) for i in (1, 2, 3))
    ang = phases[:, None] + 2.0 * np.pi * np.arange(n) / n
    pts = np.stack([radii[:, None] * np.cos(ang), radii[:, None] * np.sin(ang)], axis=-1)
    seeds = pts[:, 0, :]
    d = seeds[:, None, :] - pts.reshape(1, -1, 2)
    dist = np.hypot(d[..., 0], d[..., 1])
    self_term = dist <= 1e-12 * radii[:, None]
    dist[self_term] = 1.0
    power = 2.0 * gamma if kind == "homogeneous" else -2.0
    w = dist ** power
    w[self_term] = 0.0
    radial = np.einsum("rnk,rk->rn", d, seeds)
    r2 = radii * radii
    out = (w * radial) @ np.repeat(masses, n) / r2
    # a central point adds m_c d^power (q - 0) . q / r^2 = m_c r^power
    return out + center_mass * radii ** power


def maxwell_omega(n: int, center_mass: float, ring_mass: float, radius: float) -> float:
    """Newtonian centre + regular n-gon: omega^2 = (M + m/4 sum csc(pi j/n)) / R^3."""
    s = sum(1.0 / math.sin(math.pi * j / n) for j in range(1, n))
    return math.sqrt((center_mass + 0.25 * ring_mass * s) / radius ** 3)


def vortex_ngon_omega(n: int, circulation: float, radius: float) -> float:
    """Regular vortex n-gon (Thomson/Havelock): omega = Gamma (n - 1) / (2 R^2)."""
    return circulation * (n - 1) / (2.0 * radius ** 2)


def _mismatch(n, rings, free, kind, gamma, r):
    trial = list(rings)
    k, m, _, ph = trial[free]
    trial[free] = (k, m, r, ph)
    implied = implied_rates(n, trial, kind, gamma)
    return implied[0] - implied[-1]


def outer_roots(n: int, rings, free: int, kind: str, gamma: float = -1.5,
                lo: float = 1.05, hi: float = 6.0, points: int = 60) -> list[float]:
    """Radii of ring `free` in [lo, hi] at which the first and last regular
    rings rotate together (two-ring systems): a bracket scan on a log grid
    (3% steps) refined by bisection to 1e-10 relative."""
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), points))
    vals = [_mismatch(n, rings, free, kind, gamma, r) for r in grid]
    roots = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            roots.append(float(a))
        elif fa * fb < 0.0:
            while b - a > 1e-10 * a:
                mid = 0.5 * (a + b)
                fm = _mismatch(n, rings, free, kind, gamma, mid)
                if fa * fm <= 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append(float(0.5 * (a + b)))
    return roots


def coarse_blocks(n: int, a: int, b: int, c: int) -> dict[str, int]:
    """Report block label -> coarse block size, in report order, from the
    isotypic multiplicities of a type-(a, b, c) D_n system: w = b + 2c for
    each one-dimensional irrep, 2w for rho_k (k >= 2) and a + 2w for rho_1
    (labelled sigma); for n = 2 there is no rho and phi takes a + w."""
    w = b + 2 * c
    if n == 2:
        return {"tau_alpha": 2 * w, "phi_psi": 2 * (a + w)}
    out = {"tau_alpha": 2 * w}
    if n % 2 == 0:
        out["phi_psi"] = 2 * w
    last = n // 2 - 1 if n % 2 == 0 else (n - 1) // 2
    for k in range(2, last + 1):
        out["rho_%d" % k] = 4 * w
    out["sigma"] = 2 * (a + 2 * w)
    return out
