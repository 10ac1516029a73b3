"""Symmetry-adapted decomposition of displacement space for ring systems.

The 2N-dimensional displacement space of a D_n ring system splits into
isotypic components, one per irreducible representation.  This module builds
the adapted basis in which any equivariant operator is block diagonal and J
takes a standard symplectic form, directly from closed-form Fourier fields:
on each orbit the columns are radial and tangential unit fields modulated by
cos/sin of k*theta, O(N) per column (`assemble_global_basis`).

The projectors onto the isotypic components (for each two-dimensional
irrep the four blocks p11, p12, p21, p22) are verification oracles:
`projector_family` builds them once per system, and the four checks that
`verify` runs on them (`projector_algebra_check`, `j_relations_check`,
`isotypic_decomposition`, `symplectic_residuals`) share that one family.
The production pipeline never forms them.  They are matrix-free in the
group action: sigma(g) is a point permutation times one 2x2 planar block
(`geometry.GroupAction`), so each averaging operator is scattered from its
n nonzero 2x2 blocks per point, S = sigma(s) is a column gather, J is
`apply_j`, and since the action keeps every point on its ring, products are
taken ring by ring.  Each isotypic rank is a projector's trace.  No dense
sigma matrix is formed.  Irreps are named by the keys of `multiplicities`
("tau", "alpha", "phi", "psi", "rho_k"), and each check returns a dict of
named residuals.

All inner products are taken with respect to M = diag(masses), which may be
indefinite when masses (vorticities) change sign; orthogonalization then
falls back to the Euclidean product and the result is flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dihedral import reflection, rho_range, rotation
from .dynamics import apply_j
from .geometry import GroupAction, RingSystem

#: M-norms below this relative to the Euclidean norm trigger the fallback
MNORM_RTOL = 1e-10


def _averaging(act: GroupAction, kind: str, k: int) -> np.ndarray:
    """(1/2n) sum_{j=1..n} w_j sigma(r^j) with w_j = cos (kind "c") or sin
    (kind "s") of 2*pi*k*j/n, scattered from the n nonzero 2x2 blocks of
    each point's column: O(nN) entries, no dense sigma matrix."""
    n, npts = act.n, act.perm.shape[1]
    j = np.arange(1, n + 1)
    ang = 2.0 * np.pi * k * j / n
    w = (np.cos(ang) if kind == "c" else np.sin(ang)) / (2.0 * n)
    # sigma(r^j) puts block planar_action(r^j) at points (perm[j, i], i),
    # i.e. at flat offset 4N perm[j, i] + 2i of the 2N x 2N matrix; summing
    # by offset lets a point fixed by every rotation (the center) collect
    # all n blocks
    corner = act.perm[j % n] * (4 * npts) + 2 * np.arange(npts)
    flat = corner[:, :, None] + np.array([0, 1, 2 * npts, 2 * npts + 1])
    vals = (w[:, None, None] * act.blocks[j % n]).reshape(n, 1, 4)
    out = np.bincount(flat.ravel(), weights=np.broadcast_to(vals, flat.shape).ravel(),
                      minlength=4 * npts * npts)
    return out.reshape(2 * npts, 2 * npts)


def _projector(act: GroupAction, name: str) -> np.ndarray:
    """Projector onto a one-dimensional isotypic component: the cosine
    average at k = 0 (tau, alpha) or n/2 (phi, psi) times E + S or E - S,
    with S = sigma(s) applied as a column gather."""
    n = act.n
    avg = _averaging(act, "c", 0 if name in ("tau", "alpha") else n // 2)
    sign = 1.0 if name in ("tau", "phi") else -1.0
    return avg + sign * act.right(avg, reflection(n))


def _rho_parts(act: GroupAction, k: int) -> dict[tuple[int, int], np.ndarray]:
    """p11, p22 = 2 c_k (E +- S), p12 = 2 s_k (S - E) and p21 = 2 s_k (E + S)
    of rho_k, from one cosine and one sine average."""
    s = reflection(act.n)
    ck = 2.0 * _averaging(act, "c", k)
    sk = 2.0 * _averaging(act, "s", k)
    cks, sks = act.right(ck, s), act.right(sk, s)
    return {(1, 1): ck + cks, (2, 2): ck - cks, (1, 2): sks - sk, (2, 1): sk + sks}


@dataclass(frozen=True)
class ProjectorFamily:
    """Every isotypic projector of one system, built once and shared by the
    verification checks."""

    system: RingSystem
    action: GroupAction
    one_dim: dict[str, np.ndarray]                        # tau, alpha[, phi, psi]
    rho: dict[int, dict[tuple[int, int], np.ndarray]]     # k -> p11, p22, p12, p21


def projector_family(sys: RingSystem) -> ProjectorFamily:
    """The group action, the one-dimensional projectors and the four p_ij
    blocks of every rho_k (none for n = 2)."""
    act = sys.group_action()
    names = ("tau", "alpha", "phi", "psi")[:4 if sys.n % 2 == 0 else 2]
    return ProjectorFamily(
        system=sys, action=act,
        one_dim={name: _projector(act, name) for name in names},
        rho={k: _rho_parts(act, k) for k in rho_range(sys.n)})


def m_inner(sys: RingSystem, u: np.ndarray, v: np.ndarray) -> float:
    """<u, v>_M = u^T M v; indefinite when masses change sign."""
    return float(u @ (sys.mass_diag * v))


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


def _ring_rows(sys: RingSystem) -> list[slice]:
    """Coordinate rows of each ring.  The action keeps every point on its
    ring, so every sigma(g), and with it every projector, is block diagonal
    in these rows."""
    return [slice(2 * sl.start, 2 * sl.stop) for sl in sys.orbit_slices]


def _j_left(X: np.ndarray) -> np.ndarray:
    """J @ X"""
    return apply_j(X.T).T


def _j_right(X: np.ndarray) -> np.ndarray:
    """X @ J"""
    return -apply_j(X)


def isotypic_decomposition(fam: ProjectorFamily) -> dict[str, float]:
    """|trace - multiplicity| of every isotypic piece, keyed "tau", "alpha",
    "phi", "psi" and "rho_k part i", and |sum of traces - 2N| as
    "dimension sum".  The trace of an idempotent is its rank, and counts
    the piece's dimension by characters (Serre 1977, 2.6), so a count is
    right iff its residual is below 0.5.  Idempotency itself is gated by
    `projector_algebra_check`.
    """
    sys = fam.system
    expect = multiplicities(sys.n, *sys.type_abc)
    traces = {name: float(np.trace(P)) for name, P in fam.one_dim.items()}
    traces.update({"rho_%d part %d" % (k, i): float(np.trace(rp[(i, i)]))
                   for k, rp in fam.rho.items() for i in (1, 2)})
    out = {key: abs(t - expect[key.split()[0]]) for key, t in traces.items()}
    out["dimension sum"] = abs(sum(traces.values()) - 2 * sys.npoints)
    return out


def projector_algebra_check(fam: ProjectorFamily, probe_dim: int = 96) -> dict[str, float]:
    """Residuals of the full composition table of the projector family.

    p_a p_b = delta_ab p_a for one-dimensional labels a, b; within each
    two-dimensional family p_ij p_kl = delta_jk p_il; everything across
    distinct irreps composes to zero; and the diagonal members sum to the
    identity.  All residuals are Frobenius norms; above probe_dim the table
    is evaluated on a fixed block of unit probe vectors instead of forming
    the dense products (same scale, deterministic, O(dim^2) per pair).
    Products are taken ring by ring, where the projectors are block
    diagonal.
    """
    dim = 2 * fam.system.npoints
    family = [("p_" + name, (name,), P) for name, P in fam.one_dim.items()]
    family += [("p%d%d(k=%d)" % (ij + (k,)), ("rho", k) + ij, P)
               for k, rp in fam.rho.items() for ij, P in rp.items()]
    names, ids, ops = zip(*family)
    count = len(ops)
    where = {id_: i for i, id_ in enumerate(ids)}
    # expected[a, b]: index of the expected product p_a p_b, -1 for zero
    expected = np.full((count, count), -1)
    for ia, id_a in enumerate(ids):
        for ib, id_b in enumerate(ids):
            if id_a[0] != "rho" or id_b[0] != "rho":
                if id_a == id_b:
                    expected[ia, ib] = ia
            elif id_a[1] == id_b[1] and id_a[3] == id_b[2]:
                expected[ia, ib] = where[("rho", id_a[1], id_a[2], id_b[3])]
    probe = None
    if dim > probe_dim:
        rng = np.random.default_rng(20240817)
        probe = rng.standard_normal((dim, 4))
        probe /= np.linalg.norm(probe, axis=0)
    sq = np.zeros((count, count))
    for r in _ring_rows(fam.system):
        blocks = np.stack([P[r, r] for P in ops])                  # (K, d, d)
        x = probe[r] if probe is not None else np.eye(blocks.shape[1])
        bx = blocks @ x                                            # B x for every B
        flat = bx.transpose(1, 0, 2).reshape(x.shape[0], -1)
        for ia in range(count):
            prod = (blocks[ia] @ flat).reshape(x.shape[0], count, -1)
            has = expected[ia] >= 0
            prod[:, has] -= bx[expected[ia, has]].transpose(1, 0, 2)
            sq[ia] += np.einsum("ibm,ibm->b", prod, prod)
    res = {"%s %s" % (names[ia], names[ib]): float(np.sqrt(sq[ia, ib]))
           for ia in range(count) for ib in range(count)}
    total = sum(P for id_, P in zip(ids, ops)
                if id_[0] != "rho" or id_[2] == id_[3])
    res["completeness"] = float(np.linalg.norm(total - np.eye(dim)))
    return res


#: the label whose projector J carries each one-dimensional projector to
_J_PARTNER = {"tau": "alpha", "alpha": "tau", "phi": "psi", "psi": "phi"}


def j_relations_check(fam: ProjectorFamily) -> dict[str, float]:
    """Residuals of the commutation identities between J and the group machinery.

    J commutes with rotations and anticommutes with reflections; consequently
    J intertwines p_tau with p_alpha, p_phi with p_psi, and maps the rho
    blocks as J p11 = p22 J, J p12 = -p21 J (and symmetrically).
    """
    n, npts = fam.system.n, fam.system.npoints
    eye = np.eye(2 * npts)
    R = fam.action.left(rotation(n), eye)
    S = fam.action.left(reflection(n), eye)
    nrm = np.sqrt(2.0 * npts)                   # ||J||_F
    res = {
        "J r - r J": np.linalg.norm(_j_left(R) - _j_right(R)),
        "J s + s J": np.linalg.norm(_j_left(S) + _j_right(S)),
    }
    for name, P in fam.one_dim.items():
        other = _J_PARTNER[name]
        res["J p_%s - p_%s J" % (name, other)] = np.linalg.norm(
            _j_left(P) - _j_right(fam.one_dim[other]))
    for k, rp in fam.rho.items():
        for (i, j), P in rp.items():
            # J p_ii = p_i'i' J and J p_ij = -p_i'j' J, with 1' = 2 and 2' = 1
            Q = _j_right(rp[(3 - i, 3 - j)])
            sign = "-" if i == j else "+"
            name = "J p%d%d %s p%d%d J (k=%d)" % (i, j, sign, 3 - i, 3 - j, k)
            res[name] = np.linalg.norm(_j_left(P) - Q if i == j else _j_left(P) + Q)
    return {k: float(v / nrm) for k, v in res.items()}


def symplectic_residuals(fam: ProjectorFamily) -> dict[str, float]:
    """Diagnostics of the pairing Omega_M(u, v) = u^T M J v (never gated).

    Reports the isotropy of the tau component (Omega_M vanishes there) and,
    per two-dimensional irrep, how far M J p12 is from symmetric, i.e. how
    far the transfer p12 is from being a Hamiltonian vector field for
    Omega_M.
    """
    md = fam.system.mass_diag

    def mj(X: np.ndarray) -> np.ndarray:
        return md[:, None] * _j_left(X)

    out = {}
    pt = fam.one_dim["tau"]
    y = mj(pt)
    iso = np.sqrt(sum(np.linalg.norm(pt[r, r].T @ y[r, r]) ** 2
                      for r in _ring_rows(fam.system)))
    # ||M J||_F = ||mass_diag||
    out["Omega_M on tau component"] = float(iso / max(np.linalg.norm(md), 1e-300))
    for k, rp in fam.rho.items():
        for (i, j) in ((1, 2), (2, 1)):
            X = mj(rp[(i, j)])
            out["M J p%d%d symmetry (k=%d)" % (i, j, k)] = float(
                np.linalg.norm(X - X.T) / max(np.linalg.norm(X), 1e-300))
    return out


# ---------------------------------------------------------------------------
# adapted bases


def translation_field(sys: RingSystem, orbit: int | None = None, direction: int = 0) -> np.ndarray:
    """Unit-vector displacement on one orbit (or all points), exact."""
    e = np.zeros(2)
    e[direction] = 1.0
    out = np.zeros(2 * sys.npoints)
    if orbit is None:
        out.reshape(-1, 2)[:] = e
    else:
        sl = sys.orbit_slices[orbit]
        out.reshape(-1, 2)[sl] = e
    return out


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
    t = translation_field(sys, orbit=i, direction=0)
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
        phase0 = spec.phase < 0.5 * np.pi / n
        phi = out["phi_psi"] = []
        if semi or phase0:
            phi.append(column(np.cos(half), zero))
        if semi or not phase0:
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
    normalized: bool
    m_orthogonal: str            # "full" | "partial"
    cond: float


def gram_residual(basis: SymBasis) -> float:
    """Relative off-diagonal mass of C^T M C; zero for a fully
    M-orthogonal basis."""
    C = basis.matrix
    G = C.T @ (basis.system.mass_diag[:, None] * C)
    off = G - np.diag(np.diag(G))
    return float(np.linalg.norm(off) / max(np.linalg.norm(G), 1e-300))


def _m_gram_schmidt(sys: RingSystem, cols: list[np.ndarray],
                    normalize: bool) -> tuple[list[np.ndarray], bool]:
    """In-order Gram-Schmidt under <.,.>_M; no-op on already-orthogonal input.

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
            if abs(mw) > MNORM_RTOL * float(w @ w):
                v -= (float(w @ (md * v)) / mw) * w
            else:
                full = False
                v -= (float(w @ v) / float(w @ w)) * w
        if np.linalg.norm(v) < 1e-10 * max(np.linalg.norm(u), 1.0):
            raise ValueError("decomposition mismatch: dependent column in basis block")
        if normalize:
            mv = float(v @ (md * v))
            if abs(mv) > MNORM_RTOL * float(v @ v):
                v = v / np.sqrt(abs(mv))
            else:
                full = False
                v = v / np.linalg.norm(v)
        done.append(v)
    return done, full


def _lead_combo(sys: RingSystem, per_orbit: list[list[np.ndarray]]) -> tuple[list[np.ndarray], bool]:
    """[sum of leads, pairwise combos vanishing on the total, extras].

    Each orbit list leads with its combinable element (radial field or
    translation); combos are first + c_i * i-th with c_i killing the
    M-product against the total, the classical cross-orbit construction.
    """
    items = [lst for lst in per_orbit if lst]
    full = True
    leads = [lst[0] for lst in items]
    total = np.sum(leads, axis=0)
    md = sys.mass_diag
    combos = []
    for f in leads[1:]:
        m0 = float(leads[0] @ (md * leads[0]))
        mi = float(f @ (md * f))
        if abs(mi) > MNORM_RTOL * float(f @ f) and abs(m0) > MNORM_RTOL * float(leads[0] @ leads[0]):
            combos.append(leads[0] - (m0 / mi) * f)
        else:
            full = False
            combos.append(f)
    extras = [v for lst in items for v in lst[1:]]
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
    # M-normalization only makes sense for a definite mass form; with
    # mixed-sign vorticities columns are left unnormalized
    normalize = bool(np.all(sys.masses > 0))
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
        u, ok = _m_gram_schmidt(sys, u, normalize)
        m_full = m_full and ok
        blocks.append(BlockPlan(label=label, start=len(cols), pairs=len(u), lead_pair=lead))
        cols.extend(apply_j(v) for v in u)
        cols.extend(u)

    C = np.column_stack(cols)
    if C.shape[0] != C.shape[1]:
        raise ValueError("decomposition mismatch: %d columns for dimension %d"
                         % (C.shape[1], C.shape[0]))
    if normalize and m_full:
        # C^T M C = I, so C = M^(-1/2) Q with Q orthogonal
        cond = float(np.sqrt(np.max(sys.masses) / np.min(sys.masses)))
    else:
        cond = float(np.linalg.cond(C))
    if cond > 1e8:
        raise ValueError("basis ill-conditioned: cond = %.3g" % cond)
    return SymBasis(system=sys, matrix=C, blocks=blocks, normalized=normalize,
                    m_orthogonal="full" if m_full else "partial", cond=cond)
