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

with J = blockdiag([[0, -1], [1, 0]]).  `gradient`, `hessian` and the
solver's forces at one point per ring read their pair offsets and distances
from one kernel, as (N, chunk) planes of at most PAIR_CHUNK columns; the
complex-step `hessian_fd` keeps its own, as the independent reference.
`equivariance_residual` checks A against all 2n elements of D_n in one FFT
along the C_n orbits of A's pair blocks, reading only the point permutations
of the group action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .geometry import GroupAction, RingSpec, RingSystem, _layout, build


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


def apply_j(w: np.ndarray) -> np.ndarray:
    """J @ w without forming J: (x, y) -> (-y, x) per point."""
    v = w.reshape(-1, 2)
    return np.column_stack([-v[:, 1], v[:, 0]]).reshape(w.shape)


#: the most points per chunk of the pair kernels, which split the points
#: into near-equal chunks; `hessian` and `gradient` hold a few (N, chunk)
#: planes at a time besides their result, and no chunk is one column, which
#: numpy would sum pairwise rather than in order
PAIR_CHUNK = 128


def _pair_offsets(positions: np.ndarray, cols: np.ndarray):
    """Offsets q_p - q_j, (N, 2, len(cols)), and lengths, (N, len(cols)), from
    each point p of cols (a column) to every point j (a row); the self pair
    reads length 1, so no 0/0 arises, and its terms are unused."""
    diff = positions.T[:, cols] - positions[:, :, None]
    dist = np.sqrt(diff[:, 0] ** 2 + diff[:, 1] ** 2)
    dist[cols, np.arange(len(cols))] = 1.0
    return diff, dist


def _pair_weights(mm: np.ndarray, dist: np.ndarray, pot: Potential) -> np.ndarray:
    """Pair weights w_ij with grad_i F = sum_j w_ij (q_i - q_j)."""
    if pot.kind == "vortex":
        return -mm / dist ** 2
    return mm * dist ** (2.0 * pot.gamma)


def _row_forces(positions: np.ndarray, masses: np.ndarray, rows: np.ndarray, pot: Potential):
    """grad_p F for each point p of rows, (len(rows), 2), summed over j in
    order, and its pair weights w_pj, (N, len(rows)), the self pair's 0."""
    diff, dist = _pair_offsets(positions, rows)
    w = _pair_weights(masses[:, None] * masses[rows], dist, pot)
    w[rows, np.arange(len(rows))] = 0.0
    diff *= w[:, None, :]
    return diff.sum(axis=0).T, w


def gradient(sys: RingSystem, pot: Potential) -> np.ndarray:
    """grad F as a vector of length 2N, a chunk of points at a time."""
    chunks = np.array_split(np.arange(sys.npoints), -(-sys.npoints // PAIR_CHUNK))
    return np.concatenate([_row_forces(sys.positions, sys.masses, rows, pot)[0]
                           for rows in chunks]).reshape(-1)


def hessian(sys: RingSystem, pot: Potential) -> np.ndarray:
    """D grad F: 2N x 2N, symmetric, with exact translation kernel.

    Off-diagonal pair blocks:
      homogeneous: -m_i m_j d^(2*gamma) (I + 2*gamma u u^T),  u = (q_i-q_j)/d
      vortex:      -m_i m_j d^(-2) (2 u u^T - I)
    Diagonal blocks are the negated row sums, so constant fields are
    annihilated to rounding.

    The x x, x y = y x and y y entries are three (N, N) planes, symmetric in
    value, built a chunk of columns at a time into H[a::2, b::2]; a chunk's
    column sums, in order over j, are the row sums of its points.
    """
    N, m = sys.npoints, sys.masses
    blocks = np.empty((N, 2, N, 2))             # blocks[j, a, p, b] = H[2j + a, 2p + b]
    # on -q the offsets read q_j - q_p, as in row j's own block, whose zeros
    # carry the sign the x y plane keeps; off the diagonal, k uu + e I adds
    # -0.0 for the vortex, which keeps x, and 0.0, which turns -0.0 into 0.0
    vortex = pot.kind == "vortex"
    k, e, apply = (2.0, -1.0, np.divide) if vortex else (2.0 * pot.gamma, 1.0, np.multiply)
    flipped = -sys.positions
    for rows in np.array_split(np.arange(N), -(-N // PAIR_CHUNK)):
        diff, dist = _pair_offsets(flipped, rows)
        ux, uy = np.divide(diff, dist[:, None, :], out=diff).transpose(1, 0, 2)
        scale = dist * dist if vortex else np.power(dist, k, out=dist)
        mm = np.negative(np.multiply.outer(m, m[rows]))
        cols, self_pairs = slice(rows[0], rows[-1] + 1), (rows, np.arange(len(rows)))
        t = np.empty_like(mm)
        for a, b, u, v in ((0, 0, ux, ux), (0, 1, ux, uy), (1, 1, uy, uy)):
            np.multiply(u, v, out=t)
            t *= k
            t += e * (a == b)
            apply(t, scale, out=t)
            t *= mm
            t[self_pairs] = 0.0
            diag = -t.sum(axis=0)
            for r, s in {(a, b), (b, a)}:
                blocks[:, r, cols, s] = t
                blocks[rows, r, rows, s] = diag
    return blocks.reshape(2 * N, 2 * N)


def hessian_fd(sys: RingSystem, pot: Potential) -> np.ndarray:
    """Complex-step Hessian from the analytic pair forces (Squire & Trapp,
    SIAM Rev. 1998).

    Moving coordinate d of point p by i h changes only the pair forces
    between p and the other points, so each column is taken from those
    N - 1 terms: O(N^2) in all.  Column (p, d) holds D_pq = Im f_pq(i h) / h:
    -D_pq in row block q != p (the force on q from p is -f_pq) and
    sum_q D_pq in row block p.  Nothing is subtracted, so nothing cancels:
    any h this small gives each entry to rounding, with no step to tune.
    Distances are square roots of summed squares, which stay analytic in
    the step where |.| would not.
    """
    npts = sys.npoints
    h = 1e-30
    diff = sys.positions[:, None, :] - sys.positions[None, :, :]   # (N, N, 2)
    mm = np.outer(sys.masses, sys.masses)
    idx = np.arange(npts)
    D = np.empty((npts, 2, npts, 2))                          # (p, d, q, c)
    for d in (0, 1):
        moved = diff.astype(complex)
        moved[:, :, d] += 1j * h
        dist = np.sqrt((moved * moved).sum(axis=2))
        dist[idx, idx] = 1.0                                  # self pairs unused
        w = _pair_weights(mm, dist, pot)
        w[idx, idx] = 0.0
        D[:, d] = (w[:, :, None] * moved).imag / h
    out = -D
    out[idx, :, idx, :] = D.sum(axis=2)
    return out.transpose(2, 3, 0, 1).reshape(2 * npts, 2 * npts)


def hessian_fd_residual(op: StabilityOperator) -> float:
    """Relative error of the operator's Hessian H = M A against the
    complex-step Hessian `hessian_fd`."""
    H = op.system.mass_diag[:, None] * op.matrix
    F = hessian_fd(op.system, op.potential)
    return float(np.linalg.norm(H - F) / max(np.linalg.norm(F), 1e-300))


#: a reflection's squared residual off the invariant frequency is summed
#: directly where the energies and the cross term leave less than this share
#: of the energies they cancel, so each residual keeps ~1e-11 relative accuracy
RESOLVED = 1e-4


def _equivariance_residuals(A: np.ndarray, act: GroupAction) -> np.ndarray:
    """||A sigma(g) - sigma(g) A||_F for every g of D_n, in the order
    r^0 .. r^(n-1), then r^0 s .. r^(n-1) s, from one FFT along the rotation
    orbits of the pair blocks.

    Each 2x2 pair block of A acts as B w = alpha z + beta conj(z) with
    z = x + i y, and ||B||_F^2 = 2 (|alpha|^2 + |beta|^2).  The residual of
    g is ||sigma(g)^T A sigma(g) - A||_F, and sigma(r^k)^T A sigma(r^k)
    carries (alpha, e^(-4 pi i k/n) beta) from the pair (r^k p, r^k q) to
    (p, q).  Along each C_n orbit of pairs, (p_j, q_j) = (rot[j, p],
    rot[j, q]) for j < n, where rot[j] is the point permutation of r^j,
    composed here from act's r; that is a cyclic shift by k, which the FFT
    over j turns into the phase w^(f k), w = e^(2 pi i/n), at the frequency f,
    less 2 for beta.  By Parseval, with E[f] the energy at f,

        r^k:    sum_f E[f] |w^(f k) - 1|^2,

    a sum of non-negative terms.  r^k s compares the same shifted transform
    with sigma(s) A sigma(s), the s gather conjugated, of energies E'[f]
    and cross term X[f].  At the invariant frequency f = 0, where A's
    energy sits, the difference D is taken directly; elsewhere

        r^k s:  D + sum_(f != 0) E[f] + E'[f] - 2 Re(X[f] w^(f k)),

    whose terms sit at the scale of the rotation residuals; a reflection
    residual far below that scale is summed directly (`RESOLVED`).
    """
    n, npts = act.n, act.perm.shape[1]
    rot = np.empty((n, npts), dtype=int)
    rot[0] = np.arange(npts)
    for j in range(1, n):
        rot[j] = act.perm[0][rot[j - 1]]
    # one orbit per pair (p, q) with p first on its r-cycle, and q too where
    # p is a center; the orbit of two centers repeats one block n times
    heads = np.flatnonzero(rot.min(axis=0) == np.arange(npts))
    center = rot[1] == np.arange(npts)
    ring, fixed = heads[~center[heads]], heads[center[heads]]
    p = np.concatenate([np.repeat(ring, npts), np.repeat(fixed, len(heads))])
    q = np.concatenate([np.tile(np.arange(npts), len(ring)), np.tile(heads, len(fixed))])
    # 2 from ||B||_F^2 in alpha and beta, 1/n from Parseval
    weight = np.where(center[p] & center[q], 1.0 / n, 1.0) * (2.0 / n)
    a, b = A[0::2, 0::2], A[0::2, 1::2]
    c, d = A[1::2, 0::2], A[1::2, 1::2]
    coef = np.stack([(a + d) + 1j * (c - b), (a - d) + 1j * (c + b)]) / 2.0
    j = np.arange(n)
    phase = np.exp(2j * np.pi * (np.outer(j, j) % n) / n)              # w^(f k)
    # (A, sigma(s) A sigma(s)) x (alpha, beta) x orbit x j
    rows, cols = rot[:, p].T, rot[:, q].T
    flip = act.perm[1]
    plain = coef[:, rows, cols]
    flipped = coef[:, flip[rows], flip[cols]].conj()

    def total(x):
        """sum over channels and orbits: (2, orbits, ...) -> (...)"""
        return np.einsum("o,ko...->...", weight, x)

    spec = np.fft.fft(np.stack([plain, flipped]), axis=-1)
    spec[:, 1] = np.roll(spec[:, 1], -2, axis=-1)
    direct = total(np.abs(spec[0, ..., 0] - spec[1, ..., 0]) ** 2)
    plain, flipped = spec[..., 1:]
    energy = total(np.abs(plain) ** 2)
    scale = energy.sum() + total(np.abs(flipped) ** 2).sum()
    rotations = np.abs(phase[:, 1:] - 1.0) ** 2 @ energy
    rest = scale - 2.0 * (phase[:, 1:] @ total(plain * flipped.conj())).real
    for k in np.flatnonzero(rest < RESOLVED * scale):
        rest[k] = total(np.abs(plain * phase[k, 1:] - flipped) ** 2).sum()
    return np.sqrt(np.concatenate([rotations, direct + np.maximum(rest, 0.0)]))


def equivariance_residual(op: StabilityOperator) -> float:
    """max_g ||A sigma(g) - sigma(g) A||_F / ||A||_F over all 2n elements
    of D_n acting on op's system (`_equivariance_residuals`): O(N^2 log n)
    for all of them."""
    A = op.matrix
    act = op.system.group_action()
    return float(_equivariance_residuals(A, act).max() / max(np.linalg.norm(A), 1e-300))


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
    A = hessian(sys, pot)
    A /= sys.mass_diag[:, None]
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
    the balance there decides the whole ring.  The rings are laid out by
    `build`'s `_layout`, which applies its ring checks and coincidence
    rule, so this returns None exactly where `build` refuses the rings.

    The floor is FLOOR_UNITS * eps * max_p sum_j |w_pj| (|x_p| + |x_j|): a
    relative rounding of every coordinate moves grad_p F by about that much,
    and it bounds eps |grad_p F| and so the rounding of the balance term.
    """
    try:
        pos, masses, slices = _layout(n, rings)
    except ValueError:
        return None
    rep = np.array([sl.start for sl, spec in zip(slices, rings) if spec.kind != "center"])
    radius = np.linalg.norm(pos, axis=1)
    grad, w = _row_forces(pos, masses, rep, pot)
    err = np.sum(np.abs(w.T, order="C") * (radius[rep, None] + radius[None, :]), axis=1)
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
