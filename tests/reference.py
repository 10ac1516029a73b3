"""Dense references the tests compare the library against.

No verb runs these: the library holds D_n only as its generators r and
s, works matrix-free in their action, reads their point permutations off
the ring order, and reads the block structure off the adapted basis.
Here the same objects are formed directly, from every element of the
group, from the positions alone or as the 2N x 2N matrices or closed
forms of their definitions, so that the tests can check the library
against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ringstab.dihedral import rho_range
from ringstab.dynamics import Potential, StabilityOperator, apply_j
from ringstab.geometry import RingSystem, staggered
from ringstab.symbasis import (MNORM_RTOL, BlockPlan, SymBasis, multiplicities, standard_j,
                               translation_field)


# ---------------------------------------------------------------------------
# the group and its action
#
# Elements are written r^j s^k with r the rotation by 2*pi/n, s a reflection,
# j in {0..n-1}, k in {0,1}.  The composition law is
#
#     (r^j s^k) (r^j' s^k') = r^(j + (-1)^k j') s^(k xor k').


@dataclass(frozen=True)
class DihedralElement:
    """One element r^rot s^ref of D_n."""

    n: int
    rot: int
    ref: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("group order mismatch: need n >= 2")
        object.__setattr__(self, "rot", self.rot % self.n)
        object.__setattr__(self, "ref", self.ref % 2)

    def __mul__(self, other: "DihedralElement") -> "DihedralElement":
        if self.n != other.n:
            raise ValueError("group order mismatch: cannot compose D_%d with D_%d"
                             % (self.n, other.n))
        sign = -1 if self.ref else 1
        return DihedralElement(self.n, self.rot + sign * other.rot, self.ref ^ other.ref)

    @property
    def is_identity(self) -> bool:
        return self.rot == 0 and self.ref == 0

    def __repr__(self):
        if self.is_identity:
            return "e(D_%d)" % self.n
        head = "r^%d" % self.rot if self.rot else ""
        tail = "s" if self.ref else ""
        return "%s%s(D_%d)" % (head, tail, self.n)


def rotation(n: int, j: int = 1) -> DihedralElement:
    return DihedralElement(n, j, 0)


def reflection(n: int, j: int = 0) -> DihedralElement:
    """The reflection r^j s."""
    return DihedralElement(n, j, 1)


def full_group(n: int) -> list[DihedralElement]:
    """All 2n elements, rotations first, each family in ascending rotation order."""
    return [DihedralElement(n, j, k) for k in (0, 1) for j in range(n)]


def planar_action(g: DihedralElement) -> np.ndarray:
    """2x2 matrix of g acting on the plane with s = reflection across the x-axis.

    For n > 2 this is the standard representation rho_1; the admissible
    ring systems are invariant under it.
    """
    theta = 2.0 * np.pi * g.rot / g.n
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    if g.ref:
        return rot @ np.array([[1.0, 0.0], [0.0, -1.0]])
    return rot


@dataclass(frozen=True)
class IrrepLabel:
    """Label of a real irreducible representation of D_n.

    kind is one of "tau", "alpha", "phi", "psi", "rho"; k is meaningful for
    kind == "rho" only.
    """

    kind: str
    k: int = 0

    def __post_init__(self):
        if self.kind not in ("tau", "alpha", "phi", "psi", "rho"):
            raise ValueError("unknown irrep kind %r" % (self.kind,))
        if self.kind == "rho" and self.k < 1:
            raise ValueError("rho label needs k >= 1")

    def __repr__(self):
        if self.kind == "rho":
            return "rho_%d" % self.k
        return self.kind


TAU = IrrepLabel("tau")
ALPHA = IrrepLabel("alpha")
PHI = IrrepLabel("phi")
PSI = IrrepLabel("psi")


def rho(k: int) -> IrrepLabel:
    return IrrepLabel("rho", k)


def irrep_list(n: int) -> list[IrrepLabel]:
    """All real irreps of D_n: sum of squared degrees equals 2n.

    For n > 2 the standard representation is rho_1; for n = 2 there are no
    two-dimensional irreps and the standard representation splits as
    phi + psi.
    """
    if n < 2:
        raise ValueError("group order mismatch: need n >= 2")
    labels = [TAU, ALPHA]
    if n % 2 == 0:
        labels += [PHI, PSI]
    labels += [rho(k) for k in rho_range(n)]
    return labels


def irrep_matrix(label: IrrepLabel, g: DihedralElement) -> np.ndarray:
    """Matrix (1x1 or 2x2) of g in the fixed orthogonal realization of the irrep."""
    n, j = g.n, g.rot
    if label.kind in ("phi", "psi") and n % 2:
        raise ValueError("irrep %r requires even group order, got n=%d" % (label, n))
    if label.kind == "rho" and label.k not in rho_range(n):
        raise ValueError("irrep %r not defined for D_%d" % (label, n))
    if label.kind == "tau":
        return np.array([[1.0]])
    if label.kind == "alpha":
        return np.array([[-1.0 if g.ref else 1.0]])
    if label.kind == "phi":
        return np.array([[(-1.0) ** j]])
    if label.kind == "psi":
        return np.array([[(-1.0) ** (j + g.ref)]])
    theta = 2.0 * np.pi * label.k * j / n
    c, s = np.cos(theta), np.sin(theta)
    if g.ref:
        return np.array([[c, s], [s, -c]])
    return np.array([[c, -s], [s, c]])


#: matching tolerance for `matched_perm`, relative to the largest radius
MATCH_RTOL = 1e-9


def matched_perm(sys: RingSystem) -> np.ndarray:
    """The (2n, N) point permutations of every element of D_n in
    `full_group` order, found from the positions alone, independently of
    the ring order that `RingSystem.group_action` reads.

    The point permutations of the generators r and s come from a
    vectorized nearest-point match within each ring, so the action keeps
    every point on its ring by construction; those of r^j and r^j s follow
    by composing them.  Raises ValueError when a point's image lies in no
    ring or two points share one.
    """
    n, npts = sys.n, sys.npoints
    gens = (rotation(n), reflection(n))
    # a point outside every ring matches nothing
    match = np.zeros((2, npts), dtype=int)
    gap = np.full((2, npts), np.inf)
    for sl in sys.orbit_slices:
        pts = sys.positions[sl]
        moved = np.stack([pts @ planar_action(g).T for g in gens])   # (2, m, 2)
        d = np.hypot(moved[:, :, None, 0] - pts[:, 0],
                     moved[:, :, None, 1] - pts[:, 1])             # (2, m, m)
        local = np.argmin(d, axis=2)
        match[:, sl] = local + sl.start
        gap[:, sl] = np.take_along_axis(d, local[:, :, None], axis=2)[:, :, 0]
    scale = max(np.max(np.abs(sys.positions)), 1.0)
    off = gap > MATCH_RTOL * scale
    for g, miss, m in zip(gens, off, match):
        if miss.any():
            raise ValueError("system not D_n-symmetric: point %d leaves the set under %r"
                             % (int(np.argmax(miss)), g))
        if np.bincount(m, minlength=npts).max() > 1:
            raise ValueError("system not D_n-symmetric: action is not a permutation")
    perm = np.empty((2 * n, npts), dtype=int)
    perm[0] = np.arange(npts)
    for j in range(1, n):
        perm[j] = match[0][perm[j - 1]]
    perm[n:] = perm[:n][:, match[1]]
    return perm


def sigma_matrix(sys: RingSystem, g: DihedralElement) -> np.ndarray:
    """2N x 2N matrix of g acting on displacement fields.

    (sigma(g) w)_i = g . w_{g^{-1}(i)}: block (pi[i], i) is the planar
    action of g, where pi is the point permutation of g from
    `matched_perm`, with positions[pi[i]] = planar_action(g) @ positions[i].
    """
    perm = matched_perm(sys)[g.rot + g.ref * sys.n]
    act = planar_action(g)
    out = np.zeros((2 * sys.npoints, 2 * sys.npoints))
    for i in range(sys.npoints):
        j = perm[i]
        out[2 * j:2 * j + 2, 2 * i:2 * i + 2] = act
    return out


def sigma_matrices(sys: RingSystem) -> np.ndarray:
    """`sigma_matrix` of every g of D_n in `full_group` order, (2n, 2N, 2N)."""
    return np.array([sigma_matrix(sys, g) for g in full_group(sys.n)])


def equivariance_residuals(A: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """||A S_g - S_g A||_F / ||A||_F for each dense S_g of sigmas
    (`sigma_matrices`): the per-element check by its definition."""
    return np.linalg.norm(A @ sigmas - sigmas @ A, axis=(1, 2)) / np.linalg.norm(A)


def dense_projectors(sys: RingSystem) -> dict[tuple[str, int, int], np.ndarray]:
    """Every isotypic projector by its definition, keyed (irrep, i, j), a
    one-dimensional irrep's as its part (1, 1).  With the averages
    c_k = (1/2n) sum_j cos(2 pi k j/n) sigma(r^j), s_k likewise with sin
    (j = 1..n), and S = sigma(s): p_tau, p_alpha = c_0 (E +- S), p_phi,
    p_psi = c_{n/2} (E +- S), p11, p22 = 2 c_k (E +- S), p12 = 2 s_k (S - E)
    and p21 = 2 s_k (E + S)."""
    n = sys.n
    j = np.arange(1, n + 1)
    rotations = np.array([sigma_matrix(sys, rotation(n, i)) for i in j])

    def average(w, k):
        return np.tensordot(w(2.0 * np.pi * k * j / n), rotations, axes=1) / (2.0 * n)

    S = sigma_matrix(sys, reflection(n))
    E = np.eye(2 * sys.npoints)
    out = {}
    for irrep, k, sign in (("tau", 0, 1.0), ("alpha", 0, -1.0),
                           ("phi", n // 2, 1.0), ("psi", n // 2, -1.0))[:4 if n % 2 == 0 else 2]:
        out[irrep, 1, 1] = average(np.cos, k) @ (E + sign * S)
    for k in rho_range(n):
        ck, sk = average(np.cos, k), average(np.sin, k)
        irrep = "rho_%d" % k
        out.update({(irrep, 1, 1): 2.0 * ck @ (E + S), (irrep, 2, 2): 2.0 * ck @ (E - S),
                    (irrep, 1, 2): 2.0 * sk @ (S - E), (irrep, 2, 1): 2.0 * sk @ (E + S)})
    return out


def m_inner(sys: RingSystem, u: np.ndarray, v: np.ndarray) -> float:
    """<u, v>_M = u^T M v; indefinite when masses change sign."""
    return float(u @ (sys.mass_diag * v))


# ---------------------------------------------------------------------------
# the adapted basis and its certificate, one block at a time
#
# The library builds every rho_k block of one size as a stack, orthogonalizes
# and certifies each stack in one batched pass.  Here each block is built
# from its own closed-form columns, orthogonalized column by column with 1-D
# products and certified relation by relation; the library must give the
# same bits.


def m_null(m: float, v: np.ndarray) -> bool:
    """Whether v, of M-norm m = v^T M v, is too close to M-null to divide
    by: |m| <= MNORM_RTOL v^T v."""
    return abs(m) <= MNORM_RTOL * float(v @ v)


def orbit_columns(sys: RingSystem, i: int) -> dict[str, list[np.ndarray]]:
    """Closed-form V_1-side columns of one orbit (J gives the partners),
    keyed by block label, each rho_k block from its own k:

      tau_alpha  r e_r; semiregular adds eps e_t
      phi_psi    cos(n theta/2) e_r (phase 0), sin(n theta/2) e_t (phase
                 pi/n); semiregular rings take both
      rho_k      cos k theta e_r, -sin k theta e_t; semiregular adds
                 eps sin k theta e_r, eps cos k theta e_t
      sigma      the orbit's horizontal translation, then cos theta e_r +
                 sin theta e_t; semiregular adds eps sin theta e_r,
                 -eps cos theta e_t

    with e_r, e_t the radial and tangential unit vectors, r the radius and
    eps = +1 at a semiregular ring's +mu points, -1 at its -mu points.  The
    center carries the translation only; for n = 2 the translation material
    lives in phi_psi.
    """
    n = sys.n
    spec = sys.rings[i]
    t = translation_field(sys, i)
    if spec.kind == "center":
        return {"phi_psi" if n == 2 else "sigma": [t]}
    sl = sys.orbit_slices[i]
    x = sys.positions[sl]
    radius = np.linalg.norm(x, axis=1)
    e_r = x / radius[:, None]
    e_t = np.column_stack([-e_r[:, 1], e_r[:, 0]])
    theta = np.arctan2(x[:, 1], x[:, 0])
    semi = spec.kind == "semiregular"
    eps = np.where(np.arange(len(x)) % 2 == 0, 1.0, -1.0)
    zero = np.zeros(len(x))

    def column(f_r: np.ndarray, f_t: np.ndarray) -> np.ndarray:
        w = np.zeros((sys.npoints, 2))
        w[sl] = f_r[:, None] * e_r + f_t[:, None] * e_t
        return w.reshape(-1)

    out = {"tau_alpha": [column(radius, zero)]}
    if semi:
        out["tau_alpha"].append(column(zero, eps))
    if n == 2:
        out["phi_psi"] = [t] + ([column(np.cos(theta), zero)] if semi else [])
        return out
    if n % 2 == 0:
        half = 0.5 * n * theta
        phi = out["phi_psi"] = []
        if semi or not staggered(n, spec):
            phi.append(column(np.cos(half), zero))
        if semi or staggered(n, spec):
            phi.append(column(zero, np.sin(half)))
    for k in rho_range(n):
        c, s = np.cos(k * theta), np.sin(k * theta)
        if k == 1:
            out["sigma"] = [t, column(c, s)]
            if semi:
                out["sigma"] += [column(eps * s, zero), column(zero, -eps * c)]
        else:
            out["rho_%d" % k] = [column(c, zero), column(zero, -s)]
            if semi:
                out["rho_%d" % k] += [column(eps * s, zero), column(zero, eps * c)]
    return out


def m_gram_schmidt(sys: RingSystem, cols: list[np.ndarray]) -> tuple[list[np.ndarray], bool]:
    """In-order Gram-Schmidt under <.,.>_M, each column scaled to
    |v^T M v| = 1 (to unit Euclidean norm where its M-norm is degenerate).
    Returns (columns, full_flag); full_flag False means the Euclidean
    product was used for at least one step."""
    md = sys.mass_diag
    done: list[np.ndarray] = []
    full = True
    for u in cols:
        v = u.copy()
        for w in done:
            mw = float(w @ (md * w))
            if m_null(mw, w):
                full = False
                v -= (float(w @ v) / float(w @ w)) * w
            else:
                v -= (float(w @ (md * v)) / mw) * w
        if np.linalg.norm(v) < 1e-10 * max(np.linalg.norm(u), 1.0):
            raise ValueError("decomposition mismatch: dependent column in basis block")
        mv = float(v @ (md * v))
        if m_null(mv, v):
            full = False
            v = v / np.linalg.norm(v)
        else:
            v = v / np.sqrt(abs(mv))
        done.append(v)
    return done, full


def lead_combo(sys: RingSystem, per_orbit: list[list[np.ndarray]]) -> tuple[list[np.ndarray], bool]:
    """[sum of leads, combos first + c_i * i-th vanishing in M-product on
    the total, extras]; with an M-null total, or an M-null lead, the leads
    follow as they are and the basis is partial."""
    items = [lst for lst in per_orbit if lst]
    full = True
    leads = [lst[0] for lst in items]
    total = np.sum(leads, axis=0)
    md = sys.mass_diag
    extras = [v for lst in items for v in lst[1:]]
    if m_null(float(total @ (md * total)), total):
        return [total] + leads[1:] + extras, False
    combos = []
    m0 = float(leads[0] @ (md * leads[0]))
    lead_null = m_null(m0, leads[0])
    for f in leads[1:]:
        mi = float(f @ (md * f))
        if lead_null or m_null(mi, f):
            full = False
            combos.append(f)
        else:
            combos.append(leads[0] - (m0 / mi) * f)
    return [total] + combos + extras, full


def per_block_basis(sys: RingSystem) -> SymBasis:
    """`assemble_global_basis` one block at a time: each block's columns
    from `orbit_columns`, its leads combined by `lead_combo`, then
    `m_gram_schmidt`; the condition number from each block's singular
    values."""
    contribs = [orbit_columns(sys, i) for i in range(len(sys.rings))]
    n = sys.n
    a, b, c = sys.type_abc
    expect = multiplicities(n, a, b, c)
    plan = [("tau_alpha", "tau", True)]
    if n % 2 == 0:
        plan.append(("phi_psi", "phi", n == 2))
    if n > 2:
        plan += [("rho_%d" % k, "rho_%d" % k, False) for k in rho_range(n)[1:]]
        plan.append(("sigma", "rho_1", True))
    cols: list[np.ndarray] = []
    blocks: list[BlockPlan] = []
    m_full = True
    for label, name, lead in plan:
        per_orbit = [ct[label] for ct in contribs if ct.get(label)]
        if lead:
            u, ok = lead_combo(sys, per_orbit)
            m_full = m_full and ok
        else:
            u = [v for lst in per_orbit for v in lst]
        assert len(u) == expect[name], (label, len(u), expect[name])
        u, ok = m_gram_schmidt(sys, u)
        m_full = m_full and ok
        blocks.append(BlockPlan(label=label, start=len(cols), pairs=len(u), lead_pair=lead))
        cols.extend(apply_j(v) for v in u)
        cols.extend(u)
    C = np.column_stack(cols)
    sv = np.concatenate([np.linalg.svd(C[:, blk.cols], compute_uv=False) for blk in blocks])
    cond = float(sv.max() / sv.min())
    if cond > 1e8:
        raise ValueError("basis ill-conditioned: cond = %.3g" % cond)
    return SymBasis(system=sys, matrix=C, blocks=blocks,
                    m_orthogonal="full" if m_full else "partial", cond=cond)


def per_block_certificate(basis: SymBasis) -> dict[str, float]:
    """`symmetry_certificate` one block and one relation at a time: rho_b(g)
    = G_b^-1 C_b^T M (g C_b) by a solve per block, then each residual of
    D_n's presentation as its own Frobenius norm."""
    act = basis.system.group_action()
    n = act.n
    C = basis.matrix
    md = basis.system.mass_diag
    moved = {g: act.left(g, C) for g in "rs"}
    out = {}
    for blk in basis.blocks:
        cb = C[:, blk.cols]
        mct = cb.T * md
        rho = {}
        for g, X in moved.items():
            xt = X[:, blk.cols].T
            rho[g] = np.linalg.solve(mct @ cb, mct @ xt.T)
            res = xt - rho[g].T @ cb.T
            out["%s %s invariance" % (blk.label, g)] = float(
                np.linalg.norm(res, axis=(0, 1)) / np.linalg.norm(cb.T, axis=(0, 1)))
        R, S = rho["r"], rho["s"]
        eye, J = np.eye(blk.size), standard_j(blk.pairs)
        if blk.label == "tau_alpha":
            minimal = R - eye
        elif blk.label == "phi_psi":
            minimal = R + eye
        else:
            k = 1 if blk.label == "sigma" else int(blk.label[4:])
            minimal = R @ R - 2.0 * np.cos(2.0 * np.pi * k / n) * R + eye
        SR = S @ R
        for key, rel in (("minimal polynomial", minimal), ("s^2", S @ S - eye),
                         ("(s r)^2", SR @ SR - eye), ("J r", R @ J - J @ R),
                         ("J s", S @ J + J @ S)):
            out["%s %s" % (blk.label, key)] = float(np.linalg.norm(rel))
    return out


# ---------------------------------------------------------------------------
# the potential and J


def j_matrix(npoints: int) -> np.ndarray:
    """Block diagonal J, one [[0, -1], [1, 0]] block per point."""
    out = np.zeros((2 * npoints, 2 * npoints))
    i = 2 * np.arange(npoints)
    out[i, i + 1] = -1.0
    out[i + 1, i] = 1.0
    return out


def potential_value(sys: RingSystem, pot: Potential) -> float:
    i, j = np.triu_indices(sys.npoints, k=1)
    dist = np.hypot(*(sys.positions[i] - sys.positions[j]).T)
    mm = sys.masses[i] * sys.masses[j]
    if pot.kind == "vortex":
        return float(-np.sum(mm * np.log(dist)))
    p = 2.0 * pot.gamma + 2.0
    return float(np.sum(mm * dist ** p) / p)


# ---------------------------------------------------------------------------
# the pair kernels as (N, N, 2, 2) blocks and (rows, N, 2) offsets, which
# `hessian` and `gradient` must match bit for bit


def pair_row_forces(positions: np.ndarray, masses: np.ndarray, rows: np.ndarray,
                    pot: Potential) -> tuple[np.ndarray, np.ndarray]:
    """grad_p F for each point p of rows, (len(rows), 2), and the pair
    weights w_pj it sums, (len(rows), N), the self pair's set to 0."""
    diff = positions[rows, None, :] - positions[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    self_pairs = (np.arange(len(rows)), rows)
    dist[self_pairs] = 1.0
    mm = masses[rows, None] * masses[None, :]
    w = -mm / dist ** 2 if pot.kind == "vortex" else mm * dist ** (2.0 * pot.gamma)
    w[self_pairs] = 0.0
    return (w[:, :, None] * diff).sum(axis=1), w


def pair_gradient(sys: RingSystem, pot: Potential) -> np.ndarray:
    """grad F as a vector of length 2N, all rows at once."""
    return pair_row_forces(sys.positions, sys.masses, np.arange(sys.npoints), pot)[0].reshape(-1)


def pair_hessian(sys: RingSystem, pot: Potential) -> np.ndarray:
    """D grad F from the (N, N, 2, 2) pair blocks of `hessian`'s docstring,
    the diagonal blocks the negated row sums."""
    N = sys.npoints
    diff = sys.positions[:, None, :] - sys.positions[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    idx = np.arange(N)
    dist[idx, idx] = 1.0
    u = diff / dist[:, :, None]
    uu = u[:, :, :, None] * u[:, :, None, :]
    if pot.kind == "vortex":
        B = (2.0 * uu - np.eye(2)) / (dist ** 2)[:, :, None, None]
    else:
        B = (dist ** (2.0 * pot.gamma))[:, :, None, None] * (np.eye(2) + 2.0 * pot.gamma * uu)
    B *= -np.outer(sys.masses, sys.masses)[:, :, None, None]
    B[idx, idx] = 0.0
    B[idx, idx] = -B.sum(axis=1)
    return B.transpose(0, 2, 1, 3).reshape(2 * N, 2 * N)


# ---------------------------------------------------------------------------
# the all-pairs coincidence scan `build` replaced by its first-point rule


def collision_tolerance(radii: np.ndarray) -> float:
    """Distance below which two points coincide, from the points' distances
    to the origin: 1e-9 * max(rmax, 1)."""
    return 1e-9 * max(np.max(radii), 1.0)


def _check_collisions(positions: np.ndarray) -> None:
    """Raise on the first point i with a later point j within
    `collision_tolerance`; j is i's nearest later point.  Rows are taken in
    chunks of about 2^20 pair distances so memory stays bounded for large N."""
    npts = len(positions)
    tol = collision_tolerance(np.linalg.norm(positions, axis=1))
    step = max(1, (1 << 20) // npts)
    for lo in range(0, npts, step):
        rows = np.arange(lo, min(lo + step, npts))
        d = np.linalg.norm(positions[None, :, :] - positions[rows, None, :], axis=2)
        d[np.arange(npts)[None, :] <= rows[:, None]] = np.inf
        hit = np.flatnonzero(d.min(axis=1) < tol)
        if hit.size:
            i = hit[0]
            raise ValueError("collision: points %d and %d coincide"
                             % (rows[i], int(np.argmin(d[i]))))


# ---------------------------------------------------------------------------
# pencils, the dense transform and the degree profile


def pencil(op: StabilityOperator, lam: float) -> np.ndarray:
    """The stability pencil of the full system at one lambda value."""
    return _pencils(op.matrix, j_matrix(op.system.npoints), op.omega,
                    op.potential.kind, [lam])[0]


def _pencils(A: np.ndarray, J: np.ndarray, omega: float, kind: str, ts) -> np.ndarray:
    """The pencils at every lambda in ts as one (..., len(ts), s, s) stack;
    leading axes of A and J (a stack of blocks) come first.  The pencil is
    (A + c I) + d J with (c, d) = (omega, lambda) for vortices and
    (lambda^2 - omega^2, 2 lambda omega) for homogeneous potentials."""
    ts = np.asarray(ts, dtype=float)
    if kind == "vortex":
        c, d = np.full_like(ts, omega), ts
    else:
        c, d = ts * ts - omega * omega, 2.0 * ts * omega
    A, J = A[..., None, :, :], J[..., None, :, :]
    return (A + c[:, None, None] * np.eye(A.shape[-1])) + d[:, None, None] * J


@dataclass
class TransformResult:
    a_tilde: np.ndarray
    j_tilde: np.ndarray
    off_residuals: dict[str, float]
    max_off: float


def _off_residual(M: np.ndarray, cols: np.ndarray, total: float) -> float:
    """Frobenius mass of M[outside, cols] relative to total = ||M||_F."""
    if total == 0.0:
        return 0.0
    mask = np.ones(M.shape[0], dtype=bool)
    mask[cols] = False
    return float(np.linalg.norm(M[np.ix_(mask, cols)]) / total)


def transform(op: StabilityOperator, basis: SymBasis) -> TransformResult:
    """Conjugate A and J into the adapted basis and measure block leakage.

    The dense reference for `factorize`'s projected blocks: two 2N x 2N
    solves."""
    C = basis.matrix
    a_t = np.linalg.solve(C, op.matrix @ C)
    j_t = np.linalg.solve(C, apply_j(C.T).T)      # J C, J never formed
    norms = (np.linalg.norm(a_t), np.linalg.norm(j_t))
    offs = {blk.label: max(_off_residual(a_t, np.array(blk.cols), norms[0]),
                           _off_residual(j_t, np.array(blk.cols), norms[1]))
            for blk in basis.blocks}
    return TransformResult(a_tilde=a_t, j_tilde=j_t, off_residuals=offs,
                           max_off=max(offs.values()))


def expected_degree_profile(n: int, a: int, b: int, c: int) -> list[int]:
    """Coarse block sizes in assembly order (tau/alpha, phi/psi, rho_2..,
    sigma); each homogeneous factor has twice this degree, each vortex
    factor exactly this degree."""
    m = multiplicities(n, a, b, c)
    if n == 2:
        return [2 * m["tau"], 2 * m["phi"]]
    out = [2 * m["tau"]]
    if n % 2 == 0:
        out.append(2 * m["phi"])
    ks = sorted(int(k.split("_")[1]) for k in m if k.startswith("rho_"))
    out += [2 * m["rho_%d" % k] for k in ks if k != 1]
    out.append(2 * m["rho_1"])
    return out
