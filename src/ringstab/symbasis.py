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
The production pipeline never forms them.  The action keeps every point on
its ring, so every sigma(g), and with it every projector, is block
diagonal, one block per ring.  The family holds those blocks and nothing
else: one (K, 2m, 2m) stack per ring, every projector of the ring in one
product of the (K x 2n) table of character weights with the ring's
sigma(r^j) and sigma(r^j) sigma(s) tables.  Each check runs ring by ring
on the stacks and sums its squared norms over the rings; each isotypic
rank is a projector's trace.  No 2N x 2N projector and no dense sigma
matrix is formed.  Irreps are named by the keys of `multiplicities`
("tau", "alpha", "phi", "psi", "rho_k"), and each check returns a dict of
named residuals.

All inner products are taken with respect to M = diag(masses), which may be
indefinite when masses (vorticities) change sign; orthogonalization then
falls back to the Euclidean product and the result is flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dihedral import rho_range
from .dynamics import apply_j
from .geometry import GroupAction, RingSystem

#: M-norms below this relative to the Euclidean norm trigger the fallback
MNORM_RTOL = 1e-10
#: float entries (1 MiB) of each temporary the projector checks take of one
#: chunk of a ring stack (8 projectors of 64 x 64 in the algebra's products
#: on 4 probes), so that the chunk's temporaries stay in cache
_CHUNK_ENTRIES = 1 << 17


def _ring_tables(rows: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Dense (len(rows), 2m, 2m) matrices on one ring's rows and columns,
    matrix t holding the 2x2 block blocks[t] at points (rows[t, i], i).
    With rows[t] an element's point permutation on the ring and blocks[t]
    its planar action, matrix t is the ring's diagonal block of that
    element's sigma."""
    count, m = rows.shape
    out = np.zeros((count, m, 2, m, 2))
    out[np.arange(count)[:, None], rows, :, np.arange(m), :] = blocks[:, None]
    return out.reshape(count, 2 * m, 2 * m)


def _labels(n: int) -> list[tuple[str, int, int]]:
    """Every isotypic projector of D_n in family order, as (irrep, i, j):
    tau, alpha[, phi, psi] as (name, 1, 1), then p11, p22, p12, p21 of each
    rho_k (none for n = 2)."""
    ones = ("tau", "alpha", "phi", "psi")[:4 if n % 2 == 0 else 2]
    return [(name, 1, 1) for name in ones] + [
        ("rho_%d" % k, i, j) for k in rho_range(n) for i, j in ((1, 1), (2, 2), (1, 2), (2, 1))]


def _character_weights(n: int, labels: list[tuple[str, int, int]]) -> np.ndarray:
    """(K, 2n) weights w with projector K = sum_j w[K, j-1] sigma(r^j) +
    w[K, n+j-1] sigma(r^j) sigma(s), j = 1..n.  With the averages
    c_k = (1/2n) sum_j cos(2 pi k j/n) sigma(r^j) and s_k likewise with sin,
    and S = sigma(s): p_tau, p_alpha = c_0 (E +- S), p_phi, p_psi =
    c_{n/2} (E +- S); p11, p22 = 2 c_k (E +- S), p12 = 2 s_k (S - E) and
    p21 = 2 s_k (E + S)."""
    j = np.arange(1, n + 1)
    rows = []
    for key, i, jj in labels:
        if key.startswith("rho_"):
            ang = 2.0 * np.pi * int(key[4:]) * j / n
            c, s = np.cos(ang) / n, np.sin(ang) / n
            row = {(1, 1): (c, c), (2, 2): (c, -c), (1, 2): (-s, s), (2, 1): (s, s)}[i, jj]
        else:
            c = np.cos(2.0 * np.pi * (0 if key in ("tau", "alpha") else n // 2) * j / n) / (2.0 * n)
            row = (c, c if key in ("tau", "phi") else -c)
        rows.append(np.concatenate(row))
    return np.array(rows)


def _ring_stack(act: GroupAction, sl: slice, weights: np.ndarray) -> np.ndarray:
    """Every projector of the family on one ring, (K, 2m, 2m): one product
    of the character weights with the ring's sigma(r^j) tables and their
    sigma(r^j) sigma(s), j = 1..n.  sigma(r^j) sigma(s) is taken as a
    column gather by sigma(s) and then its 2x2 block, not read from the
    action's entry for r^j s, so the checks still test that the action is
    a homomorphism."""
    n = act.n
    j = np.arange(1, n + 1) % n                  # r^j in `full_group` order
    rows = act.perm[j, sl] - sl.start
    rows = np.concatenate([rows, rows[:, act.perm[n, sl] - sl.start]])
    blocks = np.concatenate([act.blocks[j], act.blocks[j] @ act.blocks[n]])
    tables = _ring_tables(rows, blocks)
    return (weights @ tables.reshape(2 * n, -1)).reshape(-1, *tables.shape[1:])


@dataclass(frozen=True)
class ProjectorFamily:
    """Every isotypic projector of one system, built once and shared by the
    verification checks.  Each projector is block diagonal, one block per
    ring, and is held as those blocks: stacks[r][K] is projector labels[K]
    on ring r's rows and columns."""

    system: RingSystem
    action: GroupAction
    labels: tuple[tuple[str, int, int], ...]     # (irrep, i, j), `_labels` order
    stacks: list[np.ndarray]                     # per orbit, (K, 2m, 2m)


def projector_family(sys: RingSystem) -> ProjectorFamily:
    """The group action and, ring by ring, the one-dimensional projectors
    and the four p_ij blocks of every rho_k."""
    act = sys.group_action()
    labels = _labels(sys.n)
    weights = _character_weights(sys.n, labels)
    return ProjectorFamily(system=sys, action=act, labels=tuple(labels),
                           stacks=[_ring_stack(act, sl, weights) for sl in sys.orbit_slices])


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
    """J @ X for X or a stack of them: (x, y) -> (-y, x) on each point's
    pair of rows."""
    v = X.reshape(X.shape[:-2] + (-1, 2, X.shape[-1]))
    return np.stack([-v[..., 1, :], v[..., 0, :]], axis=-2).reshape(X.shape)


def _j_right(X: np.ndarray) -> np.ndarray:
    """X @ J for X or a stack of them: (x, y) -> (y, -x) on each point's
    pair of columns."""
    v = X.reshape(X.shape[:-1] + (-1, 2))
    return np.stack([v[..., 1], -v[..., 0]], axis=-1).reshape(X.shape)


def _sq_norms(X: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of a stack."""
    flat = X.reshape(len(X), -1)
    return np.einsum("kx,kx->k", flat, flat)


def _chunks(count: int, entries: int) -> list[slice]:
    """Consecutive slices of range(count), each of about _CHUNK_ENTRIES /
    entries items of `entries` floats."""
    step = max(1, _CHUNK_ENTRIES // entries)
    return [slice(a, min(a + step, count)) for a in range(0, count, step)]


def isotypic_decomposition(fam: ProjectorFamily) -> dict[str, float]:
    """|trace - multiplicity| of every isotypic piece, keyed "tau", "alpha",
    "phi", "psi" and "rho_k part i", and |sum of traces - 2N| as
    "dimension sum".  The trace of an idempotent is its rank, and counts
    the piece's dimension by characters (Serre 1977, 2.6), so a count is
    right iff its residual is below 0.5.  Idempotency itself is gated by
    `projector_algebra_check`.  Traces are summed over the ring blocks.
    """
    sys = fam.system
    expect = multiplicities(sys.n, *sys.type_abc)
    traces = sum(np.trace(stack, axis1=1, axis2=2) for stack in fam.stacks)
    diag = [(key, i, float(t)) for (key, i, j), t in zip(fam.labels, traces) if i == j]
    out = {("%s part %d" % (key, i) if key.startswith("rho_") else key): abs(t - expect[key])
           for key, i, t in diag}
    out["dimension sum"] = abs(sum(t for _, _, t in diag) - 2 * sys.npoints)
    return out


def projector_algebra_check(fam: ProjectorFamily, probe_dim: int = 96) -> dict[str, float]:
    """Residuals of the full composition table of the projector family.

    p_a p_b = delta_ab p_a for one-dimensional labels a, b; within each
    two-dimensional family p_ij p_kl = delta_jk p_il; everything across
    distinct irreps composes to zero; and the diagonal members sum to the
    identity.  All residuals are Frobenius norms; above probe_dim the table
    is evaluated on a fixed block of unit probe vectors instead of forming
    the dense products (same scale, deterministic, O(dim^2) per pair).
    Products are taken ring by ring, on the family's stacks, and each
    squared norm is summed over the rings.
    """
    labels = fam.labels
    count = len(labels)
    where = {label: i for i, label in enumerate(labels)}
    # the nonzero products p_a p_b = p_e as index arrays (a, b, e), sorted
    # by a: p_ij p_kl = p_il when j = k, where a one-dimensional label is
    # its irrep's only part (1, 1)
    pa, pb, pe = np.array([(a, b, where[(key, i, l)])
                           for a, (key, i, j) in enumerate(labels)
                           for b, (key_b, k, l) in enumerate(labels)
                           if key_b == key and k == j]).T
    dim = 2 * fam.system.npoints
    probe = None
    if dim > probe_dim:
        rng = np.random.default_rng(20240817)
        probe = rng.standard_normal((dim, 4))
        probe /= np.linalg.norm(probe, axis=0)
    diag = [i for i, (_, a, b) in enumerate(labels) if a == b]
    sq = np.zeros((count, count))
    comp = 0.0
    for r, stack in zip(_ring_rows(fam.system), fam.stacks):
        d = stack.shape[1]
        x = probe[r] if probe is not None else np.eye(d)
        bx = stack @ x                                             # B x for every B
        # row block b of flat is (p_b x)^T, so flat p_a^T stacks every
        # (p_a p_b x)^T
        flat = bx.transpose(0, 2, 1).reshape(-1, d)
        chunks = _chunks(count, flat.size)
        buf = np.empty((chunks[0].stop,) + flat.shape)
        for c in chunks:
            rows = c.stop - c.start
            prod = np.matmul(flat, stack[c].swapaxes(1, 2), out=buf[:rows])
            part = _sq_norms(prod.reshape(rows * count, -1)).reshape(rows, count)
            # the nonzero products: recompute p_a p_b x - p_e x and replace
            sel = slice(*np.searchsorted(pa, [c.start, c.stop]))
            diff = stack[pa[sel]] @ bx[pb[sel]] - bx[pe[sel]]
            part[pa[sel] - c.start, pb[sel]] = _sq_norms(diff)
            sq[c] += part
        total = stack[diag].sum(axis=0) - np.eye(d)
        comp += np.vdot(total, total)
    names = ["p%d%d(k=%s)" % (i, j, key[4:]) if key.startswith("rho_") else "p_" + key
             for key, i, j in labels]
    res = {"%s %s" % (na, nb): v for na, row in zip(names, np.sqrt(sq).tolist())
           for nb, v in zip(names, row)}
    res["completeness"] = float(np.sqrt(comp))
    return res


#: the label whose projector J carries each one-dimensional projector to
_J_PARTNER = {"tau": "alpha", "alpha": "tau", "phi": "psi", "psi": "phi"}


def j_relations_check(fam: ProjectorFamily) -> dict[str, float]:
    """Residuals of the commutation identities between J and the group machinery.

    J commutes with rotations and anticommutes with reflections; consequently
    J intertwines p_tau with p_alpha, p_phi with p_psi, and maps the rho
    blocks as J p11 = p22 J, J p12 = -p21 J (and symmetrically).  Each
    identity is taken ring by ring and its squared norm summed over the
    rings.
    """
    n, npts = fam.system.n, fam.system.npoints
    where = {label: i for i, label in enumerate(fam.labels)}
    names = ["J r - r J", "J s + s J"]
    partner, sign = [], []
    for key, i, j in fam.labels:
        if key.startswith("rho_"):
            # J p_ii = p_i'i' J and J p_ij = -p_i'j' J, with 1' = 2 and 2' = 1
            partner.append(where[(key, 3 - i, 3 - j)])
            sign.append(-1.0 if i == j else 1.0)
            names.append("J p%d%d %s p%d%d J (k=%s)"
                         % (i, j, "-" if i == j else "+", 3 - i, 3 - j, key[4:]))
        else:
            partner.append(where[(_J_PARTNER[key], 1, 1)])
            sign.append(-1.0)
            names.append("J p_%s - p_%s J" % (key, _J_PARTNER[key]))
    partner, sign = np.array(partner), np.array(sign)[:, None, None]
    gens, gen_sign = [1, n], np.array([-1.0, 1.0])[:, None, None]   # J r - r J, J s + s J
    act = fam.action
    sq = np.zeros(len(names))
    for sl, stack in zip(fam.system.orbit_slices, fam.stacks):
        sigma = _ring_tables(act.perm[gens, sl] - sl.start, act.blocks[gens])
        sq[:2] += _sq_norms(_j_left(sigma) + gen_sign * _j_right(sigma))
        for c in _chunks(len(stack), stack[0].size):
            rel = _j_left(stack[c])
            rel += sign[c] * _j_right(stack[partner[c]])
            sq[2 + c.start:2 + c.stop] += _sq_norms(rel)
    nrm = np.sqrt(2.0 * npts)                   # ||J||_F
    return {name: float(np.sqrt(v) / nrm) for name, v in zip(names, sq)}


def symplectic_residuals(fam: ProjectorFamily) -> dict[str, float]:
    """Diagnostics of the pairing Omega_M(u, v) = u^T M J v (never gated).

    Reports the isotropy of the tau component (Omega_M vanishes there) and,
    per two-dimensional irrep, how far M J p12 is from symmetric, i.e. how
    far the transfer p12 is from being a Hamiltonian vector field for
    Omega_M.  Norms are taken ring by ring and summed in square.
    """
    md = fam.system.mass_diag
    tau = fam.labels.index(("tau", 1, 1))
    transfers = np.array([ia for ia, (key, i, j) in enumerate(fam.labels) if i != j], dtype=int)
    iso = 0.0
    asym = np.zeros(len(transfers))
    size = np.zeros(len(transfers))
    for r, stack in zip(_ring_rows(fam.system), fam.stacks):
        y = stack[tau].T @ (md[r, None] * _j_left(stack[tau]))
        iso += np.vdot(y, y)
        for c in _chunks(len(transfers), stack[0].size):
            mj = md[r, None] * _j_left(stack[transfers[c]])          # M J p12, M J p21
            asym[c] += _sq_norms(mj - mj.swapaxes(1, 2))
            size[c] += _sq_norms(mj)
    # ||M J||_F = ||mass_diag||
    out = {"Omega_M on tau component": float(np.sqrt(iso) / max(np.linalg.norm(md), 1e-300))}
    for ia, a, b in zip(transfers, asym, size):
        key, i, j = fam.labels[ia]
        out["M J p%d%d symmetry (k=%s)" % (i, j, key[4:])] = float(
            np.sqrt(a) / max(np.sqrt(b), 1e-300))
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
