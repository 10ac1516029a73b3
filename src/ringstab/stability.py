"""Block diagonalization and factoring of ring-system stability pencils.

For point masses in a homogeneous potential the linearization at angular
speed omega has characteristic polynomial

    P(lambda) = det(A + (lambda^2 - omega^2) I + 2 lambda omega J),

for point vortices

    P(lambda) = det(A + omega I + lambda J),

with A = M^{-1} D(grad F) evaluated on the configuration.  In a
symmetry-adapted basis both pencils are block diagonal, so P splits into one
factor per block.  `factorize` projects each block out of one product A C
(never conjugating by C^{-1}), and recovers the factors by Newton
interpolation of the block determinants, one stack per block size; the
product is cross-checked against the dense determinant at Chebyshev sample
points, in log space so large systems cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import StabilityOperator, apply_j, j_matrix
from .symbasis import BlockPlan, SymBasis, multiplicities, translation_field

#: relative Frobenius mass allowed outside the diagonal blocks
OFF_BLOCK_TOL = 1e-9
#: relative mismatch allowed between factor product and dense determinant
ORACLE_TOL = 1e-8


# ---------------------------------------------------------------------------
# pencils and Newton interpolation


def pencil(op: StabilityOperator, lam: float) -> np.ndarray:
    """The stability pencil of the full system at one lambda value."""
    return _pencils(op.matrix, j_matrix(op.system.npoints), op.omega,
                    op.potential.kind, [lam])[0]


def _shifts(omega: float, kind: str, ts) -> tuple[np.ndarray, np.ndarray]:
    """(c, d) at each lambda in ts, for the pencil (A + c I) + d J."""
    ts = np.asarray(ts, dtype=float)
    if kind == "vortex":
        return np.full_like(ts, omega), ts
    return ts * ts - omega * omega, 2.0 * ts * omega


def _pencils(A: np.ndarray, J: np.ndarray, omega: float, kind: str, ts) -> np.ndarray:
    """The pencils at every lambda in ts as one (..., len(ts), s, s) stack;
    leading axes of A and J (a stack of blocks) come first."""
    c, d = _shifts(omega, kind, ts)
    A, J = A[..., None, :, :], J[..., None, :, :]
    return (A + c[:, None, None] * np.eye(A.shape[-1])) + d[:, None, None] * J


def _slogdets(A, omega, kind, ts) -> tuple[np.ndarray, np.ndarray]:
    """Sign and log |det| of the pencil at each lambda in ts, one pencil at
    a time, so the dense oracle holds one 2N x 2N pencil, not a stack.

    Each pencil is written into one buffer reused across the samples: A,
    plus c on the diagonal, minus and plus d at the nonzero entries of J.
    Every entry takes the one rounded addition it takes in `_pencils`, so
    the determinants are `pencil`'s bit for bit.  No 2N x 2N temporary is
    formed per sample (nor I or J), so the allocator has no large blocks
    to hand back to the system and fault in again."""
    n = A.shape[0]
    pen = np.empty((n, n))
    flat = pen.reshape(-1)        # diagonal: step n + 1; J: step 2n + 2
    out = []
    for c, d in zip(*_shifts(omega, kind, ts)):
        np.copyto(pen, A)
        flat[::n + 1] += c
        flat[1::2 * n + 2] -= d   # (2p, 2p + 1)
        flat[n::2 * n + 2] += d   # (2p + 1, 2p)
        out.append(np.linalg.slogdet(pen))
    out = np.array(out)
    return out[:, 0], out[:, 1]


def _divided_differences(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Newton coefficients of the values ys (last axis) at the nodes xs."""
    c = np.array(ys, dtype=float)
    for j in range(1, len(xs)):
        c[..., j:] = (c[..., j:] - c[..., j - 1:-1]) / (xs[j:] - xs[:-j])
    return c


def _leja_order(xs: np.ndarray) -> np.ndarray:
    """Greedy ordering maximizing the running node-distance product; keeps
    Newton interpolation stable at moderate degrees."""
    xs = np.asarray(xs, dtype=float)
    left = list(range(len(xs)))
    order = [int(np.argmax(np.abs(xs)))]
    left.remove(order[0])
    logprod = {i: 0.0 for i in left}
    while left:
        last = xs[order[-1]]
        for i in left:
            logprod[i] += np.log(max(abs(xs[i] - last), 1e-300))
        best = max(left, key=lambda i: logprod[i])
        left.remove(best)
        order.append(best)
    return xs[np.array(order)]


def _newton_eval(xs: np.ndarray, c: np.ndarray, t):
    """Horner evaluation of the Newton form (coefficients on the last axis
    of c) at t; the other axes of c broadcast against t."""
    val = c[..., -1]
    for k in range(c.shape[-1] - 2, -1, -1):
        val = c[..., k] + (t - xs[k]) * val
    return val


def _newton_to_monomial(xs: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Ascending monomial coefficients of the Newton form, on the last axis."""
    poly = c[..., -1:].copy()
    for k in range(c.shape[-1] - 2, -1, -1):
        shifted = np.concatenate((np.zeros(poly.shape[:-1] + (1,)), poly), axis=-1)
        shifted[..., :-1] -= xs[k] * poly
        poly = shifted
        poly[..., 0] += c[..., k]
    return poly


@dataclass
class PolyFactor:
    """One factor of the characteristic polynomial, stored in Newton form
    (for stable evaluation) and monomial form (ascending, for reporting).

    The block Gram matrix G satisfies G A = A^T G and G J = -J^T G, so every
    block determinant is an even polynomial; factors are interpolated in
    u = lambda^2 at half the degree, which also keeps the nodes inside the
    oracle sampling window (a full-degree integer grid in lambda is
    hopelessly ill-conditioned past degree ~40).  `even_residual` records
    the measured asymmetry at the outermost node pair; when it is not tiny
    the factor falls back to full-degree interpolation in lambda.
    """

    label: str
    degree: int
    nodes: np.ndarray
    newton: np.ndarray
    coefficients: np.ndarray
    even: bool
    even_residual: float

    def __call__(self, lam: float) -> float:
        t = lam * lam if self.even else lam
        return float(_newton_eval(self.nodes, self.newton, t))

    def roots(self) -> np.ndarray:
        """Companion-matrix roots (diagnostic output, never gated)."""
        r = np.roots(self.coefficients[::-1])
        return r[np.lexsort((r.imag, r.real))]


def block_factor(label: str, Ab: np.ndarray, Jb: np.ndarray, omega: float,
                 kind: str) -> PolyFactor:
    """Interpolate det of one block pencil over the oracle window."""
    return _block_factors([label], Ab[None], Jb[None], omega, kind)[0]


def _block_factors(labels: list[str], Ab: np.ndarray, Jb: np.ndarray, omega: float,
                   kind: str) -> list[PolyFactor]:
    """`block_factor` of each block of a (k, s, s) stack of equal-size blocks.

    The nodes depend only on the degree and omega, so every node pencil and
    parity probe of the stack goes through one `np.linalg.slogdet` call, and
    the divided differences and the Newton -> monomial conversion run on all
    k rows at once; each factor equals the one-block result bit for bit.
    """
    size = Ab.shape[-1]
    degree = size if kind == "vortex" else 2 * size
    q = degree // 2
    s = max(1.0, abs(omega))
    umax = 4.0 * s * s
    k = np.arange(q + 1)
    us = _leja_order(umax * 0.5 * (1.0 - np.cos(np.pi * k / max(q, 1))))
    lams = np.sqrt(us)
    imax = int(np.argmax(us))
    signs, logs = np.linalg.slogdet(_pencils(Ab, Jb, omega, kind, np.append(lams, -lams[imax])))
    vals = signs * np.exp(logs)
    ys, ym = vals[:, :-1], vals[:, -1]
    scale = np.maximum(np.maximum(np.abs(ys[:, imax]), np.abs(ym)), 1e-300)
    even_res = np.abs(ym - ys[:, imax]) / scale
    even = even_res <= 1e-9
    out: list[PolyFactor] = [None] * len(labels)
    if even.any():
        newton = _divided_differences(us, ys[even])
        coeffs = np.zeros((len(newton), degree + 1))
        coeffs[:, ::2] = _newton_to_monomial(us, newton)
        for row, i in enumerate(np.flatnonzero(even)):
            out[i] = PolyFactor(label=labels[i], degree=degree, nodes=us, newton=newton[row],
                                coefficients=coeffs[row], even=True,
                                even_residual=float(even_res[i]))
    if not even.all():
        kk = np.arange(degree + 1)
        xs = _leja_order(2.0 * s * np.cos(np.pi * kk / degree))
        signs, logs = np.linalg.slogdet(_pencils(Ab[~even], Jb[~even], omega, kind, xs))
        newton = _divided_differences(xs, signs * np.exp(logs))
        coeffs = _newton_to_monomial(xs, newton)
        for row, i in enumerate(np.flatnonzero(~even)):
            out[i] = PolyFactor(label=labels[i], degree=degree, nodes=xs, newton=newton[row],
                                coefficients=coeffs[row], even=False,
                                even_residual=float(even_res[i]))
    return out


# ---------------------------------------------------------------------------
# blocks by projection, and the dense reference transform


@dataclass
class TransformResult:
    a_tilde: np.ndarray
    j_tilde: np.ndarray
    off_residuals: dict[str, float]
    max_off: float
    passed: bool


def _off_residual(M: np.ndarray, cols: np.ndarray, total: float) -> float:
    """Frobenius mass of M[outside, cols] relative to total = ||M||_F."""
    if total == 0.0:
        return 0.0
    mask = np.ones(M.shape[0], dtype=bool)
    mask[cols] = False
    return float(np.linalg.norm(M[np.ix_(mask, cols)]) / total)


def transform(op: StabilityOperator, basis: SymBasis,
              tol: float = OFF_BLOCK_TOL) -> TransformResult:
    """Conjugate A and J into the adapted basis and measure block leakage.

    The dense reference for `factorize`'s projected blocks: two 2N x 2N
    solves, used by the tests and never by `factorize`."""
    C = basis.matrix
    a_t = np.linalg.solve(C, op.matrix @ C)
    j_t = np.linalg.solve(C, apply_j(C.T).T)      # J C, J never formed
    norms = (np.linalg.norm(a_t), np.linalg.norm(j_t))
    offs = {blk.label: max(_off_residual(a_t, np.array(blk.cols), norms[0]),
                           _off_residual(j_t, np.array(blk.cols), norms[1]))
            for blk in basis.blocks}
    mx = max(offs.values())
    return TransformResult(a_tilde=a_t, j_tilde=j_t, off_residuals=offs,
                           max_off=mx, passed=bool(mx <= tol))


class _Products:
    """A C and J C for projecting blocks out of the adapted basis C.

    Everything is kept transposed, one row per basis column, so a block's
    columns are a row gather.  W = |M|^(1/2) weights the residuals; for a
    mixed-sign system it keeps them a norm.
    """

    def __init__(self, op: StabilityOperator, basis: SymBasis):
        md = op.system.mass_diag
        self.ct = basis.matrix.T
        self.mct = self.ct * md                   # rows of C^T M
        self.xt = ((op.matrix @ basis.matrix).T, apply_j(self.ct))
        self.w = np.sqrt(np.abs(md))
        self.totals = tuple(float(np.linalg.norm(x * self.w)) for x in self.xt)

    def project(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A~_b and J~_b of each row of idx, a (k, s) stack of the column
        indices of k coarse blocks: G_b^-1 C_b^T M (A C_b) with
        G_b = C_b^T M C_b, one batched solve for both."""
        ct, mct = self.ct[idx], self.mct[idx]
        rhs = np.concatenate([mct @ x[idx].transpose(0, 2, 1) for x in self.xt], axis=2)
        y = np.linalg.solve(mct @ ct.transpose(0, 2, 1), rhs)
        s = idx.shape[1]
        return y[..., :s], y[..., s:]

    def residuals(self, idx: np.ndarray, ab: np.ndarray, jb: np.ndarray) -> np.ndarray:
        """max(||W (A C_b - C_b A~_b)||_F / ||W A C||_F, same for J) per row
        of idx (column indices, (k, s)) and its blocks ab, jb ((k, s, s))."""
        ct = self.ct[idx]
        out = np.zeros(len(idx))
        for x, y, total in zip(self.xt, (ab, jb), self.totals):
            if total != 0.0:
                r = (x[idx] - y.transpose(0, 2, 1) @ ct) * self.w
                out = np.maximum(out, np.linalg.norm(r, axis=(1, 2)) / total)
        return out


@dataclass
class BlockReport:
    label: str
    cols: list[int]
    size: int
    refined: bool
    off_residual: float
    factor: PolyFactor
    a_block: np.ndarray | None = None
    j_block: np.ndarray | None = None


def _split_cols(blk: BlockPlan) -> tuple[list[int], list[int]]:
    m = blk.pairs
    lead = [blk.start, blk.start + m]
    rest = [blk.start + i for i in range(1, m)] + \
           [blk.start + m + i for i in range(1, m)]
    return lead, rest


# ---------------------------------------------------------------------------
# oracle comparison (log space)


@dataclass
class OracleReport:
    samples: np.ndarray
    rel_errors: np.ndarray
    max_rel_error: float
    passed: bool


def dense_oracle(op: StabilityOperator, nsamples: int = 20) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sign and log magnitude of the dense determinant at Chebyshev points
    spanning [-2s, 2s], s = max(1, |omega|)."""
    s = max(1.0, abs(op.omega))
    i = np.arange(nsamples)
    ts = 2.0 * s * np.cos(np.pi * (2 * i + 1) / (2 * nsamples))
    signs, logs = _slogdets(op.matrix, op.omega, op.potential.kind, ts)
    return ts, signs, logs


def _log_rel_errors(sp, lp, sd, ld) -> np.ndarray:
    """|p - d| / max(|d|, 1e-9 max|d|), all magnitudes carried as logs."""
    ldmax = np.max(ld)
    lden = np.maximum(ld, ldmax + np.log(1e-9))
    out = np.empty(len(lp))
    for i in range(len(lp)):
        if sp[i] == sd[i]:
            delta = lp[i] - ld[i]
            diff = abs(np.expm1(delta))
            lnum = ld[i] + (np.log(diff) if diff > 0 else -np.inf)
        else:
            lnum = np.logaddexp(lp[i], ld[i])
        out[i] = np.exp(lnum - lden[i])
    return out


def _factor_log_product(factors: list[PolyFactor], ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign and log |prod_f f(t)| at each t in ts.

    Factors with the same nodes are evaluated together, by Horner over all
    samples at once; the logs are summed in factor order, so the result is
    the scalar per-factor, per-sample loop's bit for bit."""
    vals = np.empty((len(factors), len(ts)))
    groups: dict[tuple[bool, bytes], list[int]] = {}
    for i, f in enumerate(factors):
        groups.setdefault((f.even, f.nodes.tobytes()), []).append(i)
    for (even, _), rows in groups.items():
        newton = np.stack([factors[i].newton for i in rows])
        nodes = factors[rows[0]].nodes
        vals[rows] = _newton_eval(nodes, newton[:, None, :], ts * ts if even else ts)
    signs = np.ones(len(ts))
    logs = np.zeros(len(ts))
    with np.errstate(divide="ignore"):
        for v in vals:
            zero = v == 0.0
            signs = np.where(zero, 0.0, signs * np.sign(v))
            logs = np.where(zero, -np.inf, logs + np.log(np.abs(v)))
    return signs, logs


# ---------------------------------------------------------------------------
# classical residuals at a relative equilibrium


def classical_checks(op: StabilityOperator, tol: float = 1e-8) -> dict[str, float]:
    """Relative residuals of the exact eigenvector identities at a releq.

    The radial field kappa, its rotation J kappa, and the two translations
    are eigenvectors of A: for the homogeneous kind A kappa = (2 gamma + 1)
    omega^2 kappa and A J kappa = omega^2 J kappa; for vortices A kappa =
    omega kappa and A J kappa = -omega J kappa; translations are always in
    the kernel.  Callers should gate on op.is_releq; away from a releq the
    identities have no reason to hold.
    """
    A = op.matrix
    sys = op.system
    kap = sys.config_vector
    jkap = apply_j(kap)
    dh = translation_field(sys, direction=0)
    dv = translation_field(sys, direction=1)
    anorm = np.linalg.norm(A)
    if op.potential.kind == "vortex":
        pairs = {
            "A kappa - omega kappa": A @ kap - op.omega * kap,
            "A J kappa + omega J kappa": A @ jkap + op.omega * jkap,
        }
    else:
        lam_r = (2.0 * op.potential.gamma + 1.0) * op.omega ** 2
        pairs = {
            "A kappa - (2 gamma + 1) omega^2 kappa": A @ kap - lam_r * kap,
            "A J kappa - omega^2 J kappa": A @ jkap - op.omega ** 2 * jkap,
        }
    pairs["A Delta_h"] = A @ dh
    pairs["A Delta_v"] = A @ dv
    vecs = {"A kappa - omega kappa": kap, "A J kappa + omega J kappa": jkap,
            "A kappa - (2 gamma + 1) omega^2 kappa": kap,
            "A J kappa - omega^2 J kappa": jkap,
            "A Delta_h": dh, "A Delta_v": dv}
    out = {}
    for name, r in pairs.items():
        out[name] = float(np.linalg.norm(r) / (anorm * np.linalg.norm(vecs[name]) + 1e-300))
    return out


# ---------------------------------------------------------------------------
# main entry


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


@dataclass
class FactorizationReport:
    kind: str
    omega: float
    gamma: float | None
    is_releq: bool
    releq_residual_norm: float
    basis_cond: float
    m_orthogonal: str
    blocks: list[BlockReport]
    degree_profile: list[int]
    max_off_residual: float
    oracle: OracleReport | None
    classical: dict[str, float] | None
    notes: list[str] = field(default_factory=list)

    @property
    def factors(self) -> list[PolyFactor]:
        return [b.factor for b in self.blocks]

    @property
    def lambda_degrees(self) -> list[int]:
        """Factor degrees in lambda, finest reported partition."""
        return [b.factor.degree for b in self.blocks]

    @property
    def eigenvalues(self) -> dict[str, np.ndarray]:
        """Companion-matrix roots per factor (diagnostic only)."""
        return {b.label: b.factor.roots() for b in self.blocks}


def factorize(op: StabilityOperator, basis: SymBasis,
              tol_off: float = OFF_BLOCK_TOL,
              oracle: bool = True) -> FactorizationReport:
    """Factor the stability pencil along the adapted basis.

    Each coarse block is projected out of one product A C (`_Products`):
    A~_b = G_b^-1 C_b^T M (A C_b), J~_b likewise, with G_b = C_b^T M C_b.
    Distinct isotypic blocks are M-orthogonal (M is D_n-invariant), so
    these are the diagonal blocks of C^-1 A C and C^-1 J C, which
    `transform` forms densely.  The off-block residual of a block is the
    weighted invariance residual
        max(||W (A C_b - C_b A~_b)||_F / ||W A C||_F, same for J),
    W = |M|^(1/2); when C^T M C = I it equals the Frobenius mass of
    C^-1 A C (or C^-1 J C) outside the block's rows, relative to the whole.

    At a verified relative equilibrium the leading pair (J kappa, kappa) of
    the tau/alpha block and (Delta_v, Delta_h) of the sigma block split off
    as their own quadratic sub-blocks; the split is kept only when the
    resulting partition still passes the off-block gate, otherwise the
    coarse block is reported with a note.  The lead and rest blocks are the
    matching sub-blocks of the coarse A~_b and J~_b, as in C^-1 A C.
    Blocks of equal size are projected, and factored, as one stack.
    """
    prod = _Products(op, basis)
    coarse: dict[str, tuple[np.ndarray, np.ndarray, float]] = {}
    for size in sorted({blk.size for blk in basis.blocks}):
        same = [blk for blk in basis.blocks if blk.size == size]
        idx = np.array([blk.cols for blk in same])
        ab, jb = prod.project(idx)
        for blk, a, j, off in zip(same, ab, jb, prod.residuals(idx, ab, jb)):
            coarse[blk.label] = (a, j, float(off))

    notes = []
    kind = op.potential.kind
    blocks: list[BlockReport] = []
    for blk in basis.blocks:
        ab, jb, off = coarse[blk.label]
        if blk.lead_pair and op.is_releq and blk.pairs > 1:
            halves = []
            for suffix, cols in zip(("_lead", "_rest"), _split_cols(blk)):
                loc = np.ix_(np.array(cols) - blk.start, np.array(cols) - blk.start)
                sub_a, sub_j = ab[loc], jb[loc]
                sub_off = prod.residuals(np.array([cols]), sub_a[None], sub_j[None])[0]
                halves.append(BlockReport(label=blk.label + suffix, cols=cols, size=len(cols),
                                          refined=True, off_residual=float(sub_off),
                                          factor=None, a_block=sub_a, j_block=sub_j))
            worst = max(h.off_residual for h in halves)
            if worst <= tol_off:
                blocks += halves
                continue
            notes.append("lead pair of %s not split: off-block residual %.3g" % (blk.label, worst))
        elif blk.lead_pair and not op.is_releq:
            notes.append("not a relative equilibrium: %s lead pair kept coarse" % blk.label)
        blocks.append(BlockReport(label=blk.label, cols=blk.cols, size=blk.size, refined=False,
                                  off_residual=off, factor=None, a_block=ab, j_block=jb))
    if not op.is_releq:
        notes.append("not a relative equilibrium (residual %.3g)" % op.releq_residual_norm)

    for size in sorted({blk.size for blk in blocks}):
        same = [blk for blk in blocks if blk.size == size]
        stack = _block_factors([blk.label for blk in same],
                               np.stack([blk.a_block for blk in same]),
                               np.stack([blk.j_block for blk in same]), op.omega, kind)
        for blk, f in zip(same, stack):
            blk.factor = f

    a, b, c = op.system.type_abc
    profile = expected_degree_profile(op.system.n, a, b, c)

    orep = None
    if oracle:
        ts, sd, ld = dense_oracle(op)
        sp, lp = _factor_log_product([blk.factor for blk in blocks], ts)
        rel = _log_rel_errors(sp, lp, sd, ld)
        mx = float(np.max(rel))
        orep = OracleReport(samples=ts, rel_errors=rel, max_rel_error=mx,
                            passed=bool(mx <= ORACLE_TOL))

    classical = classical_checks(op) if op.is_releq else None
    gamma = op.potential.gamma if kind == "homogeneous" else None
    return FactorizationReport(kind=kind, omega=op.omega, gamma=gamma,
                               is_releq=op.is_releq,
                               releq_residual_norm=op.releq_residual_norm,
                               basis_cond=basis.cond,
                               m_orthogonal=basis.m_orthogonal,
                               blocks=blocks, degree_profile=profile,
                               max_off_residual=max(off for _, _, off in coarse.values()),
                               oracle=orep, classical=classical, notes=notes)
