"""Symmetry-adapted decomposition of displacement space for ring systems.

The 2N-dimensional displacement space of a D_n ring system splits into
isotypic components, one per irreducible representation.  This module builds
the adapted basis in which any equivariant operator is block diagonal and J
takes a standard symplectic form, directly from closed-form Fourier fields:
on each orbit the columns are radial and tangential unit fields modulated by
cos/sin of k*theta, O(N) per column (`assemble_global_basis`).

Each block of that basis spans a D_n-invariant subspace of one type: the
pair tau/alpha or phi/psi, which J exchanges, or one rho_k (irreps are
named by the keys of `multiplicities`).  `symmetry_certificate` checks
this for the basis itself, from the two generators r and s alone: the
block is invariant under both, and their matrices on it satisfy the
type's relations.  No projector and no dense sigma matrix is formed.
Both the certificate and `stability.factorize` project onto the blocks
with one M-projection, `_project`.

All inner products are taken with respect to M = diag(masses), which may be
indefinite when masses (vorticities) change sign.  Every column is scaled to
|u^T M u| = 1, the signature normalization of indefinite orthogonalization
(Bojanczyk, Higham & Patel 2003), so a full basis has C^T M C = diag(+-1)
for masses of any signs.  Where a column's M-norm is too small to divide
by, orthogonalization falls back to the Euclidean product and the basis is
flagged partial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dihedral import rho_range
from .dynamics import apply_j
from .geometry import RingSystem, staggered

#: M-norms below this relative to the Euclidean norm trigger the fallback
MNORM_RTOL = 1e-10


def _m_null(m: float, v: np.ndarray) -> bool:
    """Whether v, of M-norm m = v^T M v, is too close to M-null to divide
    by: |m| <= MNORM_RTOL v^T v."""
    return abs(m) <= MNORM_RTOL * float(v @ v)


def multiplicities(n: int, a: int, b: int, c: int) -> dict[str, int]:
    """Isotypic multiplicities of a type-(a,b,c) system, keyed by irrep repr.

    For n > 2 the standard representation is rho_1 with multiplicity
    a + 2(b+2c); the other rho_k get 2(b+2c), the one-dimensional irreps
    b + 2c each.  For n = 2 there are no rho components and the center and
    translations fall into phi and psi: those get a + b + 2c each.
    """
    w = b + 2 * c
    if n == 2:
        return {"tau": w, "alpha": w, "phi": a + w, "psi": a + w}
    out = {"tau": w, "alpha": w}
    if n % 2 == 0:
        out["phi"] = w
        out["psi"] = w
    for k in rho_range(n):
        out["rho_%d" % k] = (a + 2 * w) if k == 1 else 2 * w
    return out


# ---------------------------------------------------------------------------
# adapted bases


def translation_field(sys: RingSystem, orbit: int) -> np.ndarray:
    """The unit displacement along x of one orbit's points, exact."""
    out = np.zeros((sys.npoints, 2))
    out[sys.orbit_slices[orbit], 0] = 1.0
    return out.reshape(-1)


def _orbit_contribution(sys: RingSystem, i: int) -> dict[str, list[np.ndarray]]:
    """Closed-form V_1-side columns of one orbit (J gives the partners),
    keyed by block label.

    Every column is a field f_r e_r + f_t e_t on the orbit's points, with
    e_r, e_t the radial and tangential unit vectors at polar angle theta, r
    the radius and, on semiregular rings, eps = +1 at the +mu points and -1
    at the -mu points:

      tau_alpha  r e_r; semiregular adds eps e_t
      phi_psi    cos(n theta/2) e_r (phase 0), sin(n theta/2) e_t (phase
                 pi/n); semiregular rings take both
      rho_k      cos k theta e_r, -sin k theta e_t; semiregular adds
                 eps sin k theta e_r, eps cos k theta e_t
      sigma      the orbit's horizontal translation, which leads so that
                 multi-orbit assembly can combine translations across
                 orbits, then cos theta e_r + sin theta e_t; semiregular adds
                 eps sin theta e_r, -eps cos theta e_t

    The center carries the translation only.  For n = 2 there are no rho
    components and the translation material lives in phi_psi instead: the
    translation, plus cos theta e_r on a semiregular ring.
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
    # ring_positions lists semiregular points as (+mu, -mu) pairs
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


@dataclass
class BlockPlan:
    """One J-paired block of the assembled basis.

    Columns come in two halves: the first `pairs` columns are exactly J times
    the last `pairs` columns, in matching order.  `lead_pair` marks blocks
    whose first column pair (J u_1, u_1) is an eigen-pair at a relative
    equilibrium and may be split off as a quadratic factor.
    """

    label: str
    start: int
    pairs: int
    lead_pair: bool = False

    @property
    def size(self) -> int:
        return 2 * self.pairs

    @property
    def cols(self) -> list[int]:
        return list(range(self.start, self.start + self.size))

    def halves(self) -> list[tuple[str, list[int]]]:
        """(LABEL_lead, columns of the lead pair (J u_1, u_1)), (LABEL_rest,
        the other columns) in this (J side, u side) layout, so J takes
        standard form on both; none without a lead pair and a rest."""
        if not (self.lead_pair and self.pairs > 1):
            return []
        lead = self.cols[::self.pairs]
        return [(self.label + "_lead", lead),
                (self.label + "_rest", [c for c in self.cols if c not in lead])]


def standard_j(pairs: int) -> np.ndarray:
    """J_b = [[0, I], [-I, 0]]: a block's columns are (J u_1 ... J u_m,
    u_1 ... u_m) and J J u = -u exactly, so J C_b = C_b J_b bit for bit."""
    eye = np.eye(pairs)
    return np.block([[0.0 * eye, eye], [-eye, 0.0 * eye]])


@dataclass
class SymBasis:
    system: RingSystem
    matrix: np.ndarray           # (2N, 2N) columns
    blocks: list[BlockPlan]
    m_orthogonal: str            # "full" | "partial"
    cond: float


def gram_residual(basis: SymBasis) -> float:
    """Relative off-diagonal mass of C^T M C; zero for a fully
    M-orthogonal basis."""
    C = basis.matrix
    G = C.T @ (basis.system.mass_diag[:, None] * C)
    off = G - np.diag(np.diag(G))
    return float(np.linalg.norm(off) / max(np.linalg.norm(G), 1e-300))


def _size_stacks(blocks):
    """(blocks of one size, their (k, s) stack of column indices), one
    pair per block size, ascending; blocks need `size` and `cols`."""
    for size in sorted({blk.size for blk in blocks}):
        same = [blk for blk in blocks if blk.size == size]
        yield same, np.array([blk.cols for blk in same])


def _project(basis: SymBasis, xt: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """P_b = G_b^-1 C_b^T M X_b with G_b = C_b^T M C_b, for each row of idx,
    a (k, s) stack of the column indices of k blocks of C: one batched
    solve.  xt = X^T, one row per column of X, so a block is a row gather.
    Distinct isotypic blocks are M-orthogonal, so for an X = Y C with Y
    equivariant, P_b is the diagonal block b of C^-1 Y C."""
    ct = basis.matrix.T[idx]
    mct = ct * basis.system.mass_diag
    return np.linalg.solve(mct @ ct.transpose(0, 2, 1), mct @ xt[idx].transpose(0, 2, 1))


def _residual(basis: SymBasis, xt: np.ndarray, idx: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(X_b - C_b P_b)^T for each row of idx and its (s, s) block in p,
    stacked (k, s, 2N); zero when X_b lies in the span of C_b."""
    return xt[idx] - p.transpose(0, 2, 1) @ basis.matrix.T[idx]


def symmetry_certificate(basis: SymBasis) -> dict[str, float]:
    """Residuals that each block of the basis carries its irreps, keyed
    "<block> <relation>".

    For g = r and g = s, rho_b(g) = G_b^-1 C_b^T M (g C_b), with
    G_b = C_b^T M C_b: the projection `_project` that `factorize` takes of
    A, one batched call per block size and generator.  "r invariance" and
    "s invariance" are ||g C_b - C_b rho_b(g)||_F / ||C_b||_F.  With
    R = rho_b(r), S = rho_b(s) and J_b = `standard_j`, the other residuals
    are Frobenius norms of D_n's presentation (Serre 1977, 2.6) on the
    block: the minimal polynomial of r on its irreps (R - I on tau/alpha,
    R + I on phi/psi, R^2 - 2 cos(2 pi k/n) R + I on rho_k, k = 1 for
    sigma), S^2 - I and (S R)^2 - I; and J's commutation with rotations and
    anticommutation with reflections, R J_b - J_b R and S J_b + J_b S.
    rho_b(g) is similar to an orthogonal matrix, so these need no scale.
    r and s act as the `group_action` of the basis's system.
    """
    act = basis.system.group_action()
    n = act.n
    C = basis.matrix
    moved = {g: act.left(g, C).T for g in "rs"}
    rho, invariance = {}, {}
    for same, idx in _size_stacks(basis.blocks):
        scale = np.linalg.norm(C.T[idx], axis=(1, 2))
        for g, xt in moved.items():
            p = _project(basis, xt, idx)
            res = np.linalg.norm(_residual(basis, xt, idx, p), axis=(1, 2)) / scale
            for blk, pb, r in zip(same, p, res):
                rho[blk.label, g], invariance[blk.label, g] = pb, float(r)
    out = {}
    for blk in basis.blocks:
        for g in moved:
            out["%s %s invariance" % (blk.label, g)] = invariance[blk.label, g]
        R, S = rho[blk.label, "r"], rho[blk.label, "s"]
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


def _m_gram_schmidt(sys: RingSystem, cols: list[np.ndarray]) -> tuple[list[np.ndarray], bool]:
    """In-order Gram-Schmidt under <.,.>_M, each column scaled to
    |v^T M v| = 1 (to unit Euclidean norm where its M-norm is degenerate).

    Returns (columns, full_flag); full_flag False means the M-product was too
    degenerate and the Euclidean product was used for at least one step.
    """
    md = sys.mass_diag
    done: list[np.ndarray] = []
    full = True
    for u in cols:
        v = u.copy()
        for w in done:
            mw = float(w @ (md * w))
            if _m_null(mw, w):
                full = False
                v -= (float(w @ v) / float(w @ w)) * w
            else:
                v -= (float(w @ (md * v)) / mw) * w
        if np.linalg.norm(v) < 1e-10 * max(np.linalg.norm(u), 1.0):
            raise ValueError("decomposition mismatch: dependent column in basis block")
        mv = float(v @ (md * v))
        if _m_null(mv, v):
            full = False
            v = v / np.linalg.norm(v)
        else:
            v = v / np.sqrt(abs(mv))
        done.append(v)
    return done, full


def _lead_combo(sys: RingSystem, per_orbit: list[list[np.ndarray]]) -> tuple[list[np.ndarray], bool]:
    """[sum of leads, pairwise combos vanishing on the total, extras].

    Each orbit list leads with its combinable element (radial field or
    translation); combos are first + c_i * i-th with c_i killing the
    M-product against the total, the classical cross-orbit construction.
    A total of zero M-norm (by the rule `_m_null`) lies in its own
    M-complement, where the combos may depend on it (with two orbits they
    are the total); the other leads then follow it as they are, flagged
    partial, and Gram-Schmidt takes them with the Euclidean product.
    """
    items = [lst for lst in per_orbit if lst]
    full = True
    leads = [lst[0] for lst in items]
    total = np.sum(leads, axis=0)
    md = sys.mass_diag
    extras = [v for lst in items for v in lst[1:]]
    if _m_null(float(total @ (md * total)), total):
        return [total] + leads[1:] + extras, False
    combos = []
    m0 = float(leads[0] @ (md * leads[0]))
    lead_null = _m_null(m0, leads[0])
    for f in leads[1:]:
        mi = float(f @ (md * f))
        if lead_null or _m_null(mi, f):
            full = False
            combos.append(f)
        else:
            combos.append(leads[0] - (m0 / mi) * f)
    return [total] + combos + extras, full


def assemble_global_basis(sys: RingSystem) -> SymBasis:
    """Full 2N-column adapted basis, blocks ordered tau/alpha, phi/psi,
    rho_2..rho_t, sigma (rho_1).  Within each block the columns are
    (J u_1 ... J u_m, u_1 ... u_m); the J-pairing is exact by construction.
    """
    contribs = [_orbit_contribution(sys, i) for i in range(len(sys.rings))]
    n = sys.n
    a, b, c = sys.type_abc
    expect = multiplicities(n, a, b, c)
    # (block label, the component its mismatch message names, its column
    # count, whether it has a lead pair); a block with a lead pair combines
    # the orbits' leading columns (`_lead_combo`)
    plan = [("tau_alpha", "tau", expect["tau"], True)]
    if n % 2 == 0:
        plan.append(("phi_psi", "phi", expect["phi"], n == 2))
    if n > 2:
        plan += [("rho_%d" % k, "rho_%d" % k, expect["rho_%d" % k], False)
                 for k in rho_range(n)[1:]]
        plan.append(("sigma", "sigma", expect["rho_1"], True))
    cols: list[np.ndarray] = []
    blocks: list[BlockPlan] = []
    m_full = True
    for label, name, count, lead in plan:
        per_orbit = [ct[label] for ct in contribs if ct.get(label)]
        if lead:
            u, ok = _lead_combo(sys, per_orbit)
            m_full = m_full and ok
        else:
            u = [v for lst in per_orbit for v in lst]
        if len(u) != count:
            raise ValueError("decomposition mismatch: %s has %d columns, expected %d"
                             % (name, len(u), count))
        u, ok = _m_gram_schmidt(sys, u)
        m_full = m_full and ok
        blocks.append(BlockPlan(label=label, start=len(cols), pairs=len(u), lead_pair=lead))
        cols.extend(apply_j(v) for v in u)
        cols.extend(u)

    C = np.column_stack(cols)
    if C.shape[0] != C.shape[1]:
        raise ValueError("decomposition mismatch: %d columns for dimension %d"
                         % (C.shape[1], C.shape[0]))
    # distinct isotypic blocks are Euclidean-orthogonal, so the singular
    # values of C are those of its blocks; the stack of tall C_b takes half
    # the time of the stack of C_b^T
    sv = np.concatenate([np.linalg.svd(C.T[idx].transpose(0, 2, 1), compute_uv=False).ravel()
                         for _, idx in _size_stacks(blocks)])
    cond = float(sv.max() / sv.min())
    if cond > 1e8:
        raise ValueError("basis ill-conditioned: cond = %.3g" % cond)
    return SymBasis(system=sys, matrix=C, blocks=blocks,
                    m_orthogonal="full" if m_full else "partial", cond=cond)
