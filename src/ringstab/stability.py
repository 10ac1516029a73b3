"""Block diagonalization and factoring of ring-system stability pencils.

For point masses in a homogeneous potential the linearization at angular
speed omega has characteristic polynomial

    P(lambda) = det(A + (lambda^2 - omega^2) I + 2 lambda omega J),

for point vortices

    P(lambda) = det(A + omega I + lambda J),

with A = M^{-1} D(grad F) evaluated on the configuration.  In a
symmetry-adapted basis both pencils are block diagonal, so P splits into one
factor per block.  Factors are recovered by Newton interpolation of the
block determinants on small integer grids; the product is cross-checked
against the dense determinant at Chebyshev sample points, in log space so
large systems cannot overflow.
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
    """The pencils at every lambda in ts as one (len(ts), s, s) stack."""
    c, d = _shifts(omega, kind, ts)
    return (A + c[:, None, None] * np.eye(A.shape[0])) + d[:, None, None] * J


def _slogdets(A, J, omega, kind, ts) -> tuple[np.ndarray, np.ndarray]:
    """Sign and log |det| of the pencil at each lambda in ts, one pencil at
    a time, so the dense oracle holds one 2N x 2N pencil, not a stack."""
    eye = np.eye(A.shape[0])
    out = np.array([np.linalg.slogdet((A + c * eye) + d * J)
                    for c, d in zip(*_shifts(omega, kind, ts))])
    return out[:, 0], out[:, 1]


def _divided_differences(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    c = np.array(ys, dtype=float)
    for j in range(1, len(xs)):
        c[j:] = (c[j:] - c[j - 1:-1]) / (xs[j:] - xs[:-j])
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


def _newton_eval(xs: np.ndarray, c: np.ndarray, t: float) -> float:
    val = c[-1]
    for k in range(len(c) - 2, -1, -1):
        val = c[k] + (t - xs[k]) * val
    return float(val)


def _newton_to_monomial(xs: np.ndarray, c: np.ndarray) -> np.ndarray:
    poly = np.array([c[-1]])
    for k in range(len(c) - 2, -1, -1):
        shifted = np.concatenate(([0.0], poly))
        shifted[:-1] -= xs[k] * poly
        poly = shifted
        poly[0] += c[k]
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
        return _newton_eval(self.nodes, self.newton, t)

    def roots(self) -> np.ndarray:
        """Companion-matrix roots (diagnostic output, never gated)."""
        r = np.roots(self.coefficients[::-1])
        return r[np.lexsort((r.imag, r.real))]


def block_factor(label: str, Ab: np.ndarray, Jb: np.ndarray, omega: float,
                 kind: str) -> PolyFactor:
    """Interpolate det of one block pencil over the oracle window."""
    size = Ab.shape[0]
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
    ys, ym = vals[:-1], vals[-1]
    scale = max(abs(ys[imax]), abs(ym), 1e-300)
    even_res = float(abs(ym - ys[imax]) / scale)
    if even_res <= 1e-9:
        newton = _divided_differences(us, ys)
        mono_u = _newton_to_monomial(us, newton)
        coeffs = np.zeros(degree + 1)
        coeffs[::2] = mono_u
        return PolyFactor(label=label, degree=degree, nodes=us, newton=newton,
                          coefficients=coeffs, even=True, even_residual=even_res)
    kk = np.arange(degree + 1)
    xs = _leja_order(2.0 * s * np.cos(np.pi * kk / degree))
    signs, logs = np.linalg.slogdet(_pencils(Ab, Jb, omega, kind, xs))
    newton = _divided_differences(xs, signs * np.exp(logs))
    return PolyFactor(label=label, degree=degree, nodes=xs, newton=newton,
                      coefficients=_newton_to_monomial(xs, newton),
                      even=False, even_residual=even_res)


# ---------------------------------------------------------------------------
# transform and block extraction


@dataclass
class TransformResult:
    a_tilde: np.ndarray
    j_tilde: np.ndarray
    norms: tuple[float, float]           # ||a_tilde||_F, ||j_tilde||_F
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


def _leakage(a_t: np.ndarray, j_t: np.ndarray, norms: tuple[float, float],
             cols: np.ndarray) -> float:
    """The larger off-block residual of columns cols in A~ and J~."""
    return max(_off_residual(a_t, cols, norms[0]), _off_residual(j_t, cols, norms[1]))


def transform(op: StabilityOperator, basis: SymBasis,
              tol: float = OFF_BLOCK_TOL) -> TransformResult:
    """Conjugate A and J into the adapted basis and measure block leakage."""
    C = basis.matrix
    a_t = np.linalg.solve(C, op.matrix @ C)
    j_t = np.linalg.solve(C, apply_j(C.T).T)      # J C, J never formed
    norms = (np.linalg.norm(a_t), np.linalg.norm(j_t))
    offs = {blk.label: _leakage(a_t, j_t, norms, np.array(blk.cols)) for blk in basis.blocks}
    mx = max(offs.values())
    return TransformResult(a_tilde=a_t, j_tilde=j_t, norms=norms, off_residuals=offs,
                           max_off=mx, passed=bool(mx <= tol))


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
    signs, logs = _slogdets(op.matrix, j_matrix(op.system.npoints), op.omega,
                            op.potential.kind, ts)
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
    signs = np.ones(len(ts))
    logs = np.zeros(len(ts))
    for f in factors:
        for i, t in enumerate(ts):
            v = f(float(t))
            if v == 0.0:
                signs[i] = 0.0
                logs[i] = -np.inf
            else:
                signs[i] *= np.sign(v)
                logs[i] += np.log(abs(v))
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

    At a verified relative equilibrium the leading pair (J kappa, kappa) of
    the tau/alpha block and (Delta_v, Delta_h) of the sigma block split off
    as their own quadratic sub-blocks; the split is kept only when the
    resulting partition still passes the off-block gate, otherwise the
    coarse block is reported with a note.
    """
    tr = transform(op, basis, tol=tol_off)
    notes = []
    kind = op.potential.kind
    plan: list[tuple[str, list[int], bool, float]] = []
    for blk in basis.blocks:
        if blk.lead_pair and op.is_releq and blk.pairs > 1:
            lead, rest = _split_cols(blk)
            off_lead, off_rest = (_leakage(tr.a_tilde, tr.j_tilde, tr.norms, np.array(cols))
                                  for cols in (lead, rest))
            off = max(off_lead, off_rest)
            if off <= tol_off:
                plan.append((blk.label + "_lead", lead, True, off_lead))
                plan.append((blk.label + "_rest", rest, True, off_rest))
                continue
            notes.append("lead pair of %s not split: off-block residual %.3g" % (blk.label, off))
        elif blk.lead_pair and not op.is_releq:
            notes.append("not a relative equilibrium: %s lead pair kept coarse" % blk.label)
        plan.append((blk.label, blk.cols, False, tr.off_residuals[blk.label]))
    if not op.is_releq:
        notes.append("not a relative equilibrium (residual %.3g)" % op.releq_residual_norm)

    blocks = []
    for label, cols, refined, off in plan:
        idx = np.array(cols)
        Ab = tr.a_tilde[np.ix_(idx, idx)]
        Jb = tr.j_tilde[np.ix_(idx, idx)]
        blocks.append(BlockReport(label=label, cols=list(cols), size=len(cols),
                                  refined=refined, off_residual=off,
                                  factor=block_factor(label, Ab, Jb, op.omega, kind),
                                  a_block=Ab, j_block=Jb))

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
                               max_off_residual=tr.max_off,
                               oracle=orep, classical=classical, notes=notes)
