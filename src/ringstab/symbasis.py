"""Symmetry-adapted decomposition of displacement space for ring systems.

The 2N-dimensional displacement space of a D_n ring system splits into
isotypic components, one per irreducible representation.  This module builds
the adapted basis in which any equivariant operator is block diagonal and J
takes a standard symplectic form, directly from closed-form Fourier fields:
on each orbit the columns are radial and tangential unit fields modulated by
cos/sin of k*theta, O(N) per column (`assemble_global_basis`).  Blocks of
one size (every rho_k, 2 <= k < n/2, has 2(b + 2c) pairs) are built,
orthogonalized and certified as one stack.

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

import math
from dataclasses import dataclass
from functools import cache
from itertools import groupby

import numpy as np

from .dihedral import rho_range
from .dynamics import apply_j
from .geometry import RingSystem, staggered

#: M-norms below this relative to the Euclidean norm trigger the fallback
MNORM_RTOL = 1e-10


def _m_null(m: float, vv: float) -> bool:
    """Whether a vector of M-norm m = v^T M v and squared norm vv = v^T v is
    too close to M-null to divide by: |m| <= MNORM_RTOL vv."""
    return abs(m) <= MNORM_RTOL * vv


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
        out["phi"] = out["psi"] = w
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


def _orbit_contribution(sys: RingSystem, i: int, ks: np.ndarray) -> dict:
    """Closed-form V_1-side columns of one orbit (J gives the partners),
    keyed by block label, but no rho_k column: "rho" is the orbit's part of
    every rho_k, k in ks, as (slice, (K, count, points, 2) values).  Each
    is a field f_r e_r + f_t e_t on the orbit's points, e_r and e_t the
    radial and tangential unit vectors at polar angle theta, r the radius,
    eps = +1 at a semiregular ring's +mu points and -1 at its -mu points:

      tau_alpha  r e_r; semiregular adds eps e_t
      phi_psi    cos(n theta/2) e_r (phase 0), sin(n theta/2) e_t (phase
                 pi/n); semiregular rings take both
      rho_k      cos k theta e_r, -sin k theta e_t; semiregular adds
                 eps sin k theta e_r, eps cos k theta e_t
      sigma      the orbit's horizontal translation (leading, so that
                 assembly can combine translations across orbits), then
                 cos theta e_r + sin theta e_t; semiregular adds
                 eps sin theta e_r, -eps cos theta e_t

    The center carries the translation only.  For n = 2 there are no rho
    components and phi_psi takes the translation, plus cos theta e_r on a
    semiregular ring."""
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
    eps = np.where(np.arange(len(x)) % 2 == 0, 1.0, -1.0) if semi else None
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
    c, s = np.cos(theta), np.sin(theta)
    out["sigma"] = [t, column(c, s)] + ([column(eps * s, zero), column(zero, -eps * c)]
                                         if semi else [])
    if len(ks):
        kt = ks[:, None] * theta
        ck, sk, zk = np.cos(kt), np.sin(kt), np.zeros(kt.shape)
        rho = [(ck, zk), (zk, -sk)] + ([(eps * sk, zk), (zk, eps * ck)] if semi else [])
        out["rho"] = (sl, np.stack([f_r[..., None] * e_r + f_t[..., None] * e_t
                                    for f_r, f_t in rho], axis=1))
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


@cache
def standard_j(pairs: int) -> np.ndarray:
    """J_b = [[0, I], [-I, 0]]: a block's columns are (J u_1 ... J u_m,
    u_1 ... u_m) and J J u = -u exactly, so J C_b = C_b J_b bit for bit.
    One read-only array per size."""
    eye = np.eye(pairs)
    out = np.block([[0.0 * eye, eye], [-eye, 0.0 * eye]])
    out.flags.writeable = False
    return out


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
    """(blocks of one size, their (k, s) stack of column indices) for each
    size, ascending; blocks need `size` and `cols`."""
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


def _rowdot(a: np.ndarray, b: np.ndarray) -> list[float]:
    """[a[i] @ b[i]] over the rows of (k, d) stacks, [a @ b] for 1-D a, b: one
    BLAS dot per row, so the bits of the 1-D product (einsum's differ)."""
    return [float(a @ b)] if a.ndim == 1 else (a[:, None, :] @ b[:, :, None]).ravel().tolist()


def symmetry_certificate(basis: SymBasis) -> dict[str, float]:
    """Residuals that each block of the basis carries its irreps, keyed
    "<block> <relation>" in block order.

    For g = r, s (the basis system's `group_action`), rho_b(g) =
    G_b^-1 C_b^T M (g C_b), G_b = C_b^T M C_b, by `_project` as `factorize`
    takes it of A; "g invariance" is ||g C_b - C_b rho_b(g)||_F / ||C_b||_F.
    With R = rho_b(r), S = rho_b(s), J_b = `standard_j`, the others are
    Frobenius norms of D_n's presentation (Serre 1977, 2.6): r's minimal
    polynomial (R - I on tau/alpha, R + I on phi/psi, R^2 - 2 cos(2 pi k/n)
    R + I on rho_k, k = 1 for sigma), S^2 - I, (S R)^2 - I, R J_b - J_b R
    and S J_b + J_b S; rho_b(g) is similar to an orthogonal matrix, so
    they need no scale.  Each is taken for all blocks of a size at once.
    """
    act = basis.system.group_action()
    C = basis.matrix
    moved = {g: act.left(g, C).T for g in "rs"}
    rows = {}
    for same, idx in _size_stacks(basis.blocks):
        k, size = idx.shape
        scale = np.linalg.norm(C.T[idx], axis=(1, 2))
        res, rho = [], {}
        for g, xt in moved.items():
            p = rho[g] = _project(basis, xt, idx)
            res.append(np.linalg.norm(_residual(basis, xt, idx, p), axis=(1, 2)) / scale)
        R, S = rho["r"], rho["s"]
        eye, J = np.eye(size), standard_j(size // 2)
        labels = [blk.label for blk in same]
        # tau/alpha, phi/psi never share a size with rho_k or sigma blocks
        if labels[0] in ("tau_alpha", "phi_psi"):
            minimal = R + np.where(np.array(labels) == "tau_alpha", -1.0, 1.0)[:, None, None] * eye
        else:
            ks = np.array([1 if x == "sigma" else int(x[4:]) for x in labels])
            minimal = R @ R - (2.0 * np.cos(2.0 * np.pi * ks / act.n))[:, None, None] * R + eye
        SR = S @ R
        for rel in (minimal, S @ S - eye, SR @ SR - eye, R @ J - J @ R, S @ J + J @ S):
            res.append([math.sqrt(x) for x in _rowdot(rel.reshape(k, -1), rel.reshape(k, -1))])
        rows.update(zip(labels, zip(*res)))
    keys = ("r invariance", "s invariance", "minimal polynomial", "s^2", "(s r)^2", "J r", "J s")
    return {"%s %s" % (blk.label, key): float(v) for blk in basis.blocks
            for key, v in zip(keys, rows[blk.label])}


def _m_gram_schmidt(md: np.ndarray, U: np.ndarray) -> bool:
    """In-order Gram-Schmidt under <.,.>_M, M = diag(md), of each block of
    a (k, m, 2N) stack U of k blocks' m columns, in place, each column
    scaled to |v^T M v| = 1; a degenerate M-norm (`_m_null`) takes the
    Euclidean one.  Products are per-row dots (`_rowdot`), so each block
    gets the bits of its own 1-D Gram-Schmidt; a single block runs on 1-D
    rows.  Returns False when any step took the Euclidean product."""
    k, m, dim = U.shape
    norms = _rowdot(U.reshape(-1, dim), U.reshape(-1, dim))
    cols = U[0] if k == 1 else U.transpose(1, 0, 2)
    per_row = (lambda x: x[0]) if k == 1 else (lambda x: np.array(x)[:, None])
    full, done = True, []    # finished columns w: (w, divisor, M-null) per row
    for j in range(m):
        v = cols[j]
        for w, div, null in done:
            num = _rowdot(w, md * v)
            if True in null:
                full = False
                num = [e if z else a for a, e, z in zip(num, _rowdot(w, v), null)]
            v -= per_row([a / b for a, b in zip(num, div)]) * w
        scale = []
        for mv, vv, uu in zip(_rowdot(v, md * v), _rowdot(v, v), norms[j::m]):
            # dependent: less than 1e-10 of its norm (of 1, if smaller) is left
            if math.sqrt(vv) < 1e-10 * max(math.sqrt(uu), 1.0):
                raise ValueError("decomposition mismatch: dependent column in basis block")
            null = _m_null(mv, vv)
            full = full and not null
            scale.append(math.sqrt(vv if null else abs(mv)))
        v /= per_row(scale)
        if j + 1 < m:
            mw, ww = _rowdot(v, md * v), _rowdot(v, v)
            null = [_m_null(a, b) for a, b in zip(mw, ww)]
            done.append((v, [b if z else a for a, b, z in zip(mw, ww, null)], null))
    return full


def _lead_combo(md: np.ndarray, per_orbit: list[list[np.ndarray]]) -> tuple[list[np.ndarray], bool]:
    """[sum of leads, pairwise combos vanishing on the total, extras]: each
    orbit list leads with its radial field or translation; combos are
    first + c_i * i-th, c_i killing the M-product against the total.  A
    total of zero M-norm (`_m_null`) lies in its own M-complement, so the
    other leads follow it as they are, flagged partial."""
    items = [lst for lst in per_orbit if lst]
    full = True
    leads = [lst[0] for lst in items]
    total = np.sum(leads, axis=0)
    extras = [v for lst in items for v in lst[1:]]
    if _m_null(float(total @ (md * total)), float(total @ total)):
        return [total] + leads[1:] + extras, False
    combos = []
    m0 = float(leads[0] @ (md * leads[0]))
    lead_null = _m_null(m0, float(leads[0] @ leads[0]))
    for f in leads[1:]:
        mi = float(f @ (md * f))
        if lead_null or _m_null(mi, float(f @ f)):
            full = False
            combos.append(f)
        else:
            combos.append(leads[0] - (m0 / mi) * f)
    return [total] + combos + extras, full


def assemble_global_basis(sys: RingSystem) -> SymBasis:
    """Full 2N-column adapted basis, blocks ordered tau/alpha, phi/psi,
    rho_2..rho_t, sigma (rho_1), each (J u_1 ... J u_m, u_1 ... u_m), so the
    J-pairing is exact.  Blocks of one size follow each other; each run is
    one (k, m, 2N) stack, one `_m_gram_schmidt`, written into C in place."""
    n = sys.n
    ks = np.array(rho_range(n)[1:] if n > 2 else [], dtype=int)
    contribs = [_orbit_contribution(sys, i, ks) for i in range(len(sys.rings))]
    expect = multiplicities(n, *sys.type_abc)
    md = sys.mass_diag
    # (block label, its multiplicity key, whether it has a lead pair)
    plan = [("tau_alpha", "tau", True)] + ([("phi_psi", "phi", n == 2)] if n % 2 == 0 else [])
    plan += [("rho_%d" % k, "rho_%d" % k, False) for k in ks]
    plan += [("sigma", "rho_1", True)] if n > 2 else []
    dim = 2 * sys.npoints
    if sum(2 * expect[key] for _, key, _ in plan) != dim:
        raise ValueError("decomposition mismatch: blocks do not fill dimension %d" % dim)
    C, blocks, m_full, sv = np.empty((dim, dim)), [], True, []
    for pairs, run in groupby(plan, key=lambda entry: expect[entry[1]]):
        run, start = list(run), blocks[-1].start + blocks[-1].size if blocks else 0
        U = np.zeros((len(run), pairs, dim))
        if run[0][0].startswith("rho_"):       # rho_2 .. rho_t lead their run
            parts, j = U[:len(ks)].reshape(len(ks), pairs, -1, 2), 0
            for sl, values in (ct["rho"] for ct in contribs if "rho" in ct):
                parts[:, j:j + values.shape[1], sl] = values
                j += values.shape[1]
        for i, (label, _, lead) in enumerate(run):
            blocks.append(BlockPlan(label, start + 2 * pairs * i, pairs, lead))
            if not label.startswith("rho_"):
                per_orbit = [ct[label] for ct in contribs if ct.get(label)]
                u, ok = _lead_combo(md, per_orbit) if lead else ([v for o in per_orbit for v in o], True)
                if len(u) != pairs:
                    raise ValueError("decomposition mismatch: %s has %d columns" % (label, len(u)))
                m_full, U[i] = m_full and ok, u
        m_full = _m_gram_schmidt(md, U) and m_full
        # the run's column range of C as (2N, k, J side / u side, pairs)
        stack = C[:, start:start + 2 * pairs * len(run)].reshape(dim, len(run), 2, pairs)
        stack[:, :, 0] = apply_j(U).transpose(2, 0, 1)
        stack[:, :, 1] = U.transpose(2, 0, 1)
        del U
        # blocks are Euclidean-orthogonal: C's singular values are theirs
        tall = stack.reshape(dim, len(run), 2 * pairs).transpose(1, 0, 2)
        sv.append(np.linalg.svd(tall, compute_uv=False).ravel())
    sv = np.concatenate(sv)
    cond = float(sv.max() / sv.min())
    if cond > 1e8:
        raise ValueError("basis ill-conditioned: cond = %.3g" % cond)
    return SymBasis(system=sys, matrix=C, blocks=blocks,
                    m_orthogonal="full" if m_full else "partial", cond=cond)
