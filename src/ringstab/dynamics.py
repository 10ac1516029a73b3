"""Interaction potentials, their derivatives, and relative equilibria.

Two families of pairwise interactions on N planar bodies with weights m_i:

  * homogeneous: U_gamma(q) = 1/(2*gamma+2) * sum_{i<j} m_i m_j |q_i-q_j|^(2*gamma+2),
    gamma != -1; gamma = -3/2 is the Newtonian gravitational case.
  * vortex: H(q) = -sum_{i<j} m_i m_j log |q_i - q_j| (m_i are vorticities).

A configuration kappa rotating rigidly with angular speed omega is a relative
equilibrium when

    homogeneous:  omega^2 M kappa = grad U_gamma(kappa)
    vortex:       omega   M kappa = -grad H(kappa)

(each equivalent to a critical point of the corresponding rotating-frame
Hamiltonian).  The stability operator is A = M^{-1} D grad F(kappa); the
characteristic polynomial of the linearization is

    homogeneous:  det(A + (lambda^2 - omega^2) I + 2 lambda omega J)
    vortex:       det(A + omega I + lambda J)

with J = blockdiag([[0, -1], [1, 0]]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .dihedral import full_group
from .geometry import (GroupAction, RingSpec, RingSystem, build, collision_tolerance,
                       ring_positions)


@dataclass(frozen=True)
class Potential:
    kind: str                 # "homogeneous" | "vortex"
    gamma: float = -1.5

    def __post_init__(self):
        if self.kind not in ("homogeneous", "vortex"):
            raise ValueError("kind must be homogeneous or vortex, got %r" % (self.kind,))
        if self.kind == "homogeneous":
            if self.gamma == -1.0:
                raise ValueError("gamma = -1 is excluded (logarithmic potential)")
            if not math.isfinite(self.gamma):
                raise ValueError("invalid gamma %g" % self.gamma)


def homogeneous(gamma: float) -> Potential:
    return Potential("homogeneous", gamma)


def newtonian() -> Potential:
    return Potential("homogeneous", -1.5)


def vortex() -> Potential:
    return Potential("vortex")


def j_matrix(npoints: int) -> np.ndarray:
    """Block diagonal J, one [[0, -1], [1, 0]] block per point."""
    out = np.zeros((2 * npoints, 2 * npoints))
    i = 2 * np.arange(npoints)
    out[i, i + 1] = -1.0
    out[i + 1, i] = 1.0
    return out


def apply_j(w: np.ndarray) -> np.ndarray:
    """J @ w without forming J: (x, y) -> (-y, x) per point."""
    v = w.reshape(-1, 2)
    return np.column_stack([-v[:, 1], v[:, 0]]).reshape(w.shape)


def _pair_geometry(positions: np.ndarray):
    diff = positions[:, None, :] - positions[None, :, :]      # (N, N, 2)
    dist = np.linalg.norm(diff, axis=2)
    np.fill_diagonal(dist, 1.0)                               # avoid 0/0; diagonal unused
    return diff, dist


def potential_value(sys: RingSystem, pot: Potential) -> float:
    diff, dist = _pair_geometry(sys.positions)
    mm = np.outer(sys.masses, sys.masses)
    iu = np.triu_indices(sys.npoints, k=1)
    if pot.kind == "vortex":
        return float(-np.sum(mm[iu] * np.log(dist[iu])))
    p = 2.0 * pot.gamma + 2.0
    return float(np.sum(mm[iu] * dist[iu] ** p) / p)


def _pair_weights(mm: np.ndarray, dist: np.ndarray, pot: Potential) -> np.ndarray:
    """Pair weights w_ij with grad_i F = sum_j w_ij (q_i - q_j)."""
    if pot.kind == "vortex":
        return -mm / dist ** 2
    return mm * dist ** (2.0 * pot.gamma)


def gradient(sys: RingSystem, pot: Potential) -> np.ndarray:
    """grad F as a vector of length 2N."""
    diff, dist = _pair_geometry(sys.positions)
    w = _pair_weights(np.outer(sys.masses, sys.masses), dist, pot)
    np.fill_diagonal(w, 0.0)
    return (w[:, :, None] * diff).sum(axis=1).reshape(-1)


def hessian(sys: RingSystem, pot: Potential) -> np.ndarray:
    """D grad F: 2N x 2N, symmetric, with exact translation kernel.

    Off-diagonal pair blocks:
      homogeneous: -m_i m_j d^(2*gamma) (I + 2*gamma u u^T),  u = (q_i-q_j)/d
      vortex:      -m_i m_j d^(-2) (2 u u^T - I)
    Diagonal blocks are the negated row sums, so constant fields are
    annihilated to rounding.
    """
    N = sys.npoints
    diff, dist = _pair_geometry(sys.positions)
    u = diff / dist[:, :, None]
    uu = u[:, :, :, None] * u[:, :, None, :]                  # (N, N, 2, 2)
    if pot.kind == "vortex":
        B = (2.0 * uu - np.eye(2)) / (dist ** 2)[:, :, None, None]
    else:
        B = (dist ** (2.0 * pot.gamma))[:, :, None, None] * (np.eye(2) + 2.0 * pot.gamma * uu)
    B *= -np.outer(sys.masses, sys.masses)[:, :, None, None]
    idx = np.arange(N)
    B[idx, idx] = 0.0
    B[idx, idx] = -B.sum(axis=1)
    return B.transpose(0, 2, 1, 3).reshape(2 * N, 2 * N)


#: relative step of the central-difference Hessian
FD_STEP = 1e-6


def hessian_fd(sys: RingSystem, pot: Potential) -> np.ndarray:
    """Central-difference Hessian from the analytic pair forces.

    Moving coordinate d of point p by h = FD_STEP * max(1, |x_pd|) changes
    only the pair forces between p and the other points, so each column is
    differenced from those N - 1 terms: O(N^2) in all.  Column (p, d) holds
    D_pq = (f_pq(+h) - f_pq(-h)) / 2h: -D_pq in row block q != p (the force
    on q from p is -f_pq) and sum_q D_pq in row block p.
    """
    npts = sys.npoints
    x = sys.positions
    h = FD_STEP * np.maximum(1.0, np.abs(x))                  # (N, 2)
    diff = x[:, None, :] - x[None, :, :]                      # (N, N, 2)
    mm = np.outer(sys.masses, sys.masses)
    D = np.zeros((npts, 2, npts, 2))                          # (p, d, q, c)
    for d in (0, 1):
        for sgn in (1.0, -1.0):
            moved = diff.copy()
            moved[:, :, d] += sgn * h[:, d, None]
            dist = np.linalg.norm(moved, axis=2)
            np.fill_diagonal(dist, 1.0)
            w = _pair_weights(mm, dist, pot)
            np.fill_diagonal(w, 0.0)
            D[:, d] += sgn * w[:, :, None] * moved
        D[:, d] /= 2.0 * h[:, d, None, None]
    out = -D
    idx = np.arange(npts)
    out[idx, :, idx, :] = D.sum(axis=2)
    return out.transpose(2, 3, 0, 1).reshape(2 * npts, 2 * npts)


def hessian_fd_residual(op: StabilityOperator) -> float:
    """Relative error of the operator's Hessian H = M A against central
    differences."""
    H = op.system.mass_diag[:, None] * op.matrix
    F = hessian_fd(op.system, op.potential)
    return float(np.linalg.norm(H - F) / max(np.linalg.norm(F), 1e-300))


def equivariance_residual(op: StabilityOperator, act: GroupAction) -> float:
    """max_g ||A sigma(g) - sigma(g) A||_F / ||A||_F, with sigma(g) applied
    as column and row gathers: O(N^2) per element."""
    A = op.matrix
    anorm = np.linalg.norm(A)
    worst = 0.0
    for g in full_group(act.n):
        worst = max(worst, float(np.linalg.norm(act.right(A, g) - act.left(g, A))))
    return worst / max(anorm, 1e-300)


def translation_kernel_residual(op: StabilityOperator) -> float:
    """max over both unit translations of ||A t|| / (||A|| ||t||)."""
    A = op.matrix
    anorm = np.linalg.norm(A)
    worst = 0.0
    for d in (0, 1):
        t = np.zeros(A.shape[0])
        t[d::2] = 1.0
        worst = max(worst, float(np.linalg.norm(A @ t) / (anorm * np.linalg.norm(t) + 1e-300)))
    return worst


def _force_scale(g: np.ndarray) -> float:
    """max(max |grad F|, 1): the scale against which the relative-equilibrium
    residuals of `stability_operator` and `solve_releq` are judged."""
    return max(float(np.max(np.abs(g))), 1.0)


@dataclass
class StabilityOperator:
    """A = M^{-1} D grad F at a configuration, with its context."""

    system: RingSystem
    potential: Potential
    omega: float
    matrix: np.ndarray
    gradient: np.ndarray           # grad F at the configuration
    releq_residual_norm: float
    is_releq: bool                 # residual <= 1e-8 * _force_scale(grad F)

    def residual_at(self, omega: float) -> np.ndarray:
        """`releq_residual` of the system at angular speed omega, from the
        stored grad F, which does not depend on omega."""
        sys = self.system
        return _balance(sys.mass_diag * sys.config_vector, self.gradient, self.potential, omega)


def stability_operator(sys: RingSystem, pot: Potential, omega: float) -> StabilityOperator:
    H = hessian(sys, pot)
    A = H / sys.mass_diag[:, None]
    g = gradient(sys, pot)
    res = float(np.max(np.abs(_balance(sys.mass_diag * sys.config_vector, g, pot, omega))))
    return StabilityOperator(system=sys, potential=pot, omega=omega, matrix=A, gradient=g,
                             releq_residual_norm=res,
                             is_releq=bool(res <= 1e-8 * _force_scale(g)))


def _balance(mk: np.ndarray, g: np.ndarray, pot: Potential, omega: float) -> np.ndarray:
    """The rotating-frame balance from M kappa and g = grad F, elementwise."""
    if pot.kind == "vortex":
        return omega * mk + g
    return omega ** 2 * mk - g


def releq_residual(sys: RingSystem, pot: Potential, omega: float) -> np.ndarray:
    """Rotating-frame balance residual, length 2N; zero at a relative equilibrium."""
    return _balance(sys.mass_diag * sys.config_vector, gradient(sys, pot), pot, omega)


@dataclass
class ReleqSolution:
    system: RingSystem
    omega: float
    radii: np.ndarray            # per-ring radii of the solved system
    converged: bool
    iterations: int
    reduced_norm: float
    stop: str                    # "converged" | "stalled" | "iteration limit"


#: the rounding floor of the reduced residual, in units of its first-order
#: error estimate (see `_ring_forces`); the measured floor of the Newtonian
#: center-plus-two-rings system sits at 0.8-1.5 units for n = 96..768
FLOOR_UNITS = 16.0
#: iterations without a new best residual before the solver calls it stalled
STALL_ITERS = 3
#: the stop rule's residual limit, relative to the force scale
SOLVE_TOL = 1e-12
#: iterations before the solver gives up with "iteration limit"
MAX_ITERS = 50
_EPS = np.finfo(float).eps


class _RingForces(NamedTuple):
    """grad F at the first point of each non-center ring, one row per ring."""

    x: np.ndarray                # (rings, 2) representative positions
    mass: np.ndarray             # (rings,)
    grad: np.ndarray             # (rings, 2)
    frame: np.ndarray            # (rings, 2, 2) rows r-hat and t-hat at x
    floor: float                 # rounding floor of the reduced residual


def _ring_forces(n: int, rings: list[RingSpec], pot: Potential) -> _RingForces | None:
    """Forces at one representative point per non-center ring: O(N * rings).

    D_n carries the first point of a ring onto each of its other points, so
    the balance there decides the whole ring.  Returns None for geometry
    `build` would reject: a radius `ring_positions` refuses, or a point
    within `collision_tolerance` of a representative (D_n carries every
    coincidence of two points onto one at a representative).

    The floor is FLOOR_UNITS * eps * max_p sum_j |w_pj| (|x_p| + |x_j|): a
    relative rounding of every coordinate moves grad_p F by about that much,
    and it bounds eps |grad_p F| and so the rounding of the balance term.
    """
    try:
        chunks = [ring_positions(n, spec) for spec in rings]
    except ValueError:
        return None
    sizes = [len(c) for c in chunks]
    starts = [0, *accumulate(sizes[:-1])]
    rep = np.array([p for p, spec in zip(starts, rings) if spec.kind != "center"])
    pos = np.concatenate(chunks)
    masses = np.repeat([spec.mass for spec in rings], sizes)
    radius = np.linalg.norm(pos, axis=1)
    diff = pos[rep, None, :] - pos[None, :, :]                # (rings, N, 2)
    dist = np.linalg.norm(diff, axis=2)
    self_pair = (np.arange(len(rep)), rep)
    dist[self_pair] = np.inf
    if np.min(dist) < collision_tolerance(radius):
        return None
    dist[self_pair] = 1.0
    w = _pair_weights(masses[rep, None] * masses[None, :], dist, pot)
    w[self_pair] = 0.0
    grad = (w[:, :, None] * diff).sum(axis=1)
    err = np.sum(np.abs(w) * (radius[rep, None] + radius[None, :]), axis=1)
    rhat = pos[rep] / radius[rep, None]
    return _RingForces(x=pos[rep], mass=masses[rep], grad=grad,
                       frame=np.stack([rhat, rhat[:, ::-1] * [-1.0, 1.0]], axis=1),
                       floor=FLOOR_UNITS * _EPS * float(np.max(err)))


def _ring_balance(f: _RingForces, pot: Potential, omega: float) -> np.ndarray:
    """The reduced residual: `releq_residual` at each representative,
    projected on (r-hat, t-hat), as [r_1, t_1, r_2, t_2, ...]."""
    bal = _balance(f.mass[:, None] * f.x, f.grad, pot, omega)
    return np.einsum("rjk,rk->rj", f.frame, bal).ravel()


def _omega_guess(f: _RingForces, pot: Potential) -> float:
    """omega from the radial balance of the first non-center ring."""
    gr = f.grad[0] @ f.frame[0, 0]
    mr = f.mass[0] * np.linalg.norm(f.x[0])
    if pot.kind == "vortex":
        return -gr / mr
    val = gr / mr
    return np.sqrt(val) if val > 0 else 1.0


def _ring_specs(rings: list[RingSpec], radii: np.ndarray, free: list[int]) -> list[RingSpec]:
    out = list(rings)
    for val, idx in zip(radii, free):
        out[idx] = replace(out[idx], radius=float(val))
    return out


def free_radius_errors(kinds: list[str | None], free_radii: list[int] | tuple[int, ...]) -> list[str]:
    """The problems of free_radii, in its order, for rings of the given
    kinds (None for a ring whose kind is not known).

    An index must name a ring that is not a center and not the radius
    gauge, the first non-center ring; a gauge of unknown kind is not judged.
    """
    gauge = next((i for i, k in enumerate(kinds) if k != "center"), None)
    errors = []
    for i in free_radii:
        if not 0 <= i < len(kinds):
            errors.append("free radius index %d out of range" % i)
        elif kinds[i] == "center":
            errors.append("free radius index %d names a center ring" % i)
        elif i == gauge and kinds[i] is not None:
            errors.append("ring %d is the radius gauge and cannot be freed" % i)
    return errors


def solve_releq(sys: RingSystem, pot: Potential,
                free_radii: tuple[int, ...] = ()) -> ReleqSolution:
    """Newton iteration on (free ring radii, omega) for the reduced residual.

    free_radii lists ring indices whose radius is adjusted; the first
    non-center ring is the gauge and may not be freed.  The reduced
    residual is the radial and tangential balance at one point per ring
    (`_ring_forces`), so a trial point costs O(N * rings); the returned
    system is the one `build` of the call.

    Stop rule, on the max norm of the reduced residual: converged when it
    is at most max(SOLVE_TOL * max(max |grad F|, 1), its rounding floor),
    with grad F taken at the representatives, so SOLVE_TOL is relative to
    the force scale (`_force_scale`, the scale of
    `StabilityOperator.is_releq`).  The iteration gives up as "stalled"
    when STALL_ITERS iterations bring no new best residual or a step is
    below eps |x|, and as "iteration limit" after MAX_ITERS iterations.
    Returns the best iterate with a convergence flag and the stop reason
    (no exception on non-convergence).
    """
    free = sorted(set(int(i) for i in free_radii))
    errors = free_radius_errors([r.kind for r in sys.rings], free)
    if errors:
        raise ValueError(errors[0])

    def balance(f: _RingForces, omega: float):
        """The reduced residual and the stop rule's limit for it."""
        return _ring_balance(f, pot, omega), max(SOLVE_TOL * _force_scale(f.grad), f.floor)

    def residual(vec: np.ndarray):
        # invalid trial geometry (radius <= 0, collision) reads as "reject
        # the step" rather than an error, so backtracking can recover
        f = _ring_forces(sys.n, _ring_specs(sys.rings, vec[:-1], free), pot)
        if f is None:
            return None, None
        return balance(f, vec[-1])

    start = _ring_forces(sys.n, sys.rings, pot)
    x = np.array([sys.rings[i].radius for i in free] + [_omega_guess(start, pot)])
    F, limit = balance(start, x[-1])
    best = (np.max(np.abs(F)), x.copy(), limit)
    stale = 0
    stop = "iteration limit"
    it = 0
    for it in range(1, MAX_ITERS + 1):
        norm = np.max(np.abs(F))
        if norm <= limit:
            stop = "converged"
            break
        if stale >= STALL_ITERS:
            stop = "stalled"
            break
        Jac = np.empty((F.size, x.size))
        for c in range(x.size):
            step = 1e-7 * abs(x[c]) + 1e-9
            xp = x.copy()
            xp[c] += step
            Fp, _ = residual(xp)
            if Fp is None:
                xp[c] = x[c] - step
                Fm, _ = residual(xp)
                if Fm is None:
                    raise RuntimeError("solver stalled: non-finite Jacobian")
                Jac[:, c] = (F - Fm) / step
            else:
                Jac[:, c] = (Fp - F) / step
        if not np.all(np.isfinite(Jac)):
            raise RuntimeError("solver stalled: non-finite Jacobian")
        dx, *_ = np.linalg.lstsq(Jac, -F, rcond=None)
        if not np.all(np.isfinite(dx)) or np.max(np.abs(dx)) > 1e8:
            raise RuntimeError("solver stalled: unbounded Newton step")
        scale = 1.0
        Ft = lim = None
        for _ in range(12):
            Ft, lim = residual(x + scale * dx)
            if Ft is not None and (np.max(np.abs(Ft)) < norm or scale < 1e-3):
                break
            scale *= 0.5
        if Ft is None:
            raise RuntimeError("solver stalled: step leaves the valid radius domain")
        tiny = np.max(np.abs(scale * dx)) <= _EPS * np.max(np.abs(x))
        x = x + scale * dx
        F, limit = Ft, lim
        if np.max(np.abs(F)) < best[0]:
            best = (np.max(np.abs(F)), x.copy(), limit)
            stale = 0
        else:
            stale += 1
        if tiny:
            stale = STALL_ITERS
    rnorm, x, limit = best
    converged = bool(rnorm <= limit)
    if converged:
        stop = "converged"
    omega = float(x[-1])
    system = build(sys.n, _ring_specs(sys.rings, x[:-1], free))
    return ReleqSolution(system=system, omega=omega,
                         radii=np.array([r.radius for r in system.rings]),
                         converged=converged, iterations=it,
                         reduced_norm=float(rnorm), stop=stop)
