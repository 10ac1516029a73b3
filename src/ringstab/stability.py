"""Block diagonalization and factoring of ring-system stability pencils.

For point masses in a homogeneous potential the linearization at angular
speed omega has characteristic polynomial

    P(lambda) = det(A + (lambda^2 - omega^2) I + 2 lambda omega J),

for point vortices

    P(lambda) = det(A + omega I + lambda J),

with A = M^{-1} D(grad F) evaluated on the configuration.  In a
symmetry-adapted basis both pencils are block diagonal, so P splits into one
factor per block.  The basis pairs every column u with J u, so J takes the
standard form J_b = [[0, I], [-I, 0]] on each block exactly, and only A has
to be projected: `factorize` projects each block out of one product A C
(never conjugating by C^{-1}), and takes each monic factor from the
spectrum of its block's linearization, one batched eigensolve per block
size; the product is cross-checked against the dense determinant at
Chebyshev sample points, in log space so large systems cannot overflow.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .dynamics import StabilityOperator, apply_j, j_matrix
from .symbasis import SymBasis, multiplicities, standard_j, translation_field

#: default off-block threshold; `factorize` splits lead pairs against it, `cli` gates on it
OFF_BLOCK_TOL = 1e-9
#: default threshold of the oracle's relative mismatch, gated by `cli`
ORACLE_TOL = 1e-8


# ---------------------------------------------------------------------------
# pencils and block factors


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


@dataclass
class PolyFactor:
    """One monic factor of the characteristic polynomial, held as its
    roots, the spectrum of its block's linearization; every other view of
    the factor is read from them."""

    label: str
    degree: int
    spectrum: np.ndarray

    def __call__(self, lam: float) -> float:
        return float(np.prod(lam - self.spectrum).real)

    def roots(self) -> np.ndarray:
        """The roots, sorted by real part, then imaginary part."""
        return self.spectrum

    @functools.cached_property
    def coefficients(self) -> np.ndarray:
        """Monomial coefficients, ascending; the last is 1.  Expanded on
        first access and kept, read-only, since every caller shares it."""
        coeffs = np.poly(self.spectrum).real[::-1]
        coeffs.flags.writeable = False
        return coeffs


def _block_factors(labels: list[str], Ab: np.ndarray, omega: float,
                   kind: str) -> list[PolyFactor]:
    """The factor of each block of a (k, s, s) stack of equal-size blocks,
    from one batched eigensolve of the blocks' linearizations, with J in
    the standard form J_b (det J_b = 1, J_b^-1 = -J_b).

    Vortex: det(A + omega I + lambda J_b) = det(lambda I - L) with
    L = J_b (A + omega I), a signed swap of the two row halves.
    Homogeneous: det(lambda^2 I + 2 omega lambda J_b + A - omega^2 I)
    = det(lambda I - L) with the companion
    L = [[0, I], [-(A - omega^2 I), -2 omega J_b]].
    """
    size = Ab.shape[-1]
    eye = np.eye(size)
    if kind == "vortex":
        shifted, m = Ab + omega * eye, size // 2
        lin = np.concatenate([shifted[:, m:], -shifted[:, :m]], axis=1)
    else:
        lin = np.zeros((len(Ab), 2 * size, 2 * size))
        lin[:, :size, size:] = eye
        lin[:, size:, :size] = omega * omega * eye - Ab
        lin[:, size:, size:] = -2.0 * omega * standard_j(size // 2)
    spectra = np.linalg.eigvals(lin).astype(complex)
    return [PolyFactor(label=label, degree=lin.shape[-1],
                       spectrum=r[np.lexsort((r.imag, r.real))])
            for label, r in zip(labels, spectra)]


# ---------------------------------------------------------------------------
# blocks by projection, and the dense reference transform


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
    solves, used by the tests and never by `factorize`."""
    C = basis.matrix
    a_t = np.linalg.solve(C, op.matrix @ C)
    j_t = np.linalg.solve(C, apply_j(C.T).T)      # J C, J never formed
    norms = (np.linalg.norm(a_t), np.linalg.norm(j_t))
    offs = {blk.label: max(_off_residual(a_t, np.array(blk.cols), norms[0]),
                           _off_residual(j_t, np.array(blk.cols), norms[1]))
            for blk in basis.blocks}
    return TransformResult(a_tilde=a_t, j_tilde=j_t, off_residuals=offs,
                           max_off=max(offs.values()))


class _Products:
    """A C for projecting blocks out of the adapted basis C; J needs no
    product, since J C_b = C_b J_b exactly.

    Everything is kept transposed, one row per basis column, so a block's
    columns are a row gather.  W = |M|^(1/2) weights the residuals; for a
    mixed-sign system it keeps them a norm.
    """

    def __init__(self, op: StabilityOperator, basis: SymBasis):
        md = op.system.mass_diag
        self.ct = basis.matrix.T
        self.mct = self.ct * md                   # rows of C^T M
        self.act = (op.matrix @ basis.matrix).T
        self.w = np.sqrt(np.abs(md))
        self.total = float(np.linalg.norm(self.act * self.w))

    def project(self, idx: np.ndarray) -> np.ndarray:
        """A~_b of each row of idx, a (k, s) stack of the column indices of
        k coarse blocks: G_b^-1 C_b^T M (A C_b) with G_b = C_b^T M C_b, one
        batched solve."""
        ct, mct = self.ct[idx], self.mct[idx]
        return np.linalg.solve(mct @ ct.transpose(0, 2, 1),
                               mct @ self.act[idx].transpose(0, 2, 1))

    def residuals(self, idx: np.ndarray, ab: np.ndarray) -> np.ndarray:
        """||W (A C_b - C_b A~_b)||_F / ||W A C||_F per row of idx (column
        indices, (k, s)) and its blocks ab ((k, s, s))."""
        if self.total == 0.0:
            return np.zeros(len(idx))
        r = (self.act[idx] - ab.transpose(0, 2, 1) @ self.ct[idx]) * self.w
        return np.linalg.norm(r, axis=(1, 2)) / self.total


@dataclass
class BlockReport:
    label: str
    cols: list[int]
    size: int
    refined: bool
    off_residual: float
    factor: PolyFactor
    a_block: np.ndarray | None = None

    @property
    def j_block(self) -> np.ndarray:
        """J~_b, exactly the standard form J_b."""
        return standard_j(self.size // 2)


# ---------------------------------------------------------------------------
# oracle comparison (log space)


@dataclass
class OracleReport:
    samples: np.ndarray
    rel_errors: np.ndarray
    max_rel_error: float


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
    """Sign and log |prod_f f(t)| at each t in ts, from the roots of the
    monic factors: sum_i log |t - lambda_i|.  Conjugate pairs are positive,
    so the sign is -1 per real root above t; a root at a sample gives sign
    0 and log -inf."""
    roots = np.concatenate([f.spectrum for f in factors])
    real = roots.real[roots.imag == 0.0]
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(ts[:, None] - roots)).sum(axis=1)
    signs = (-1.0) ** (real > ts[:, None]).sum(axis=1)
    signs[np.isneginf(logs)] = 0.0
    return signs, logs


# ---------------------------------------------------------------------------
# classical residuals at a relative equilibrium


def classical_checks(op: StabilityOperator) -> dict[str, float]:
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
    # each identity's residual with the vector it is taken on
    if op.potential.kind == "vortex":
        pairs = {
            "A kappa - omega kappa": (A @ kap - op.omega * kap, kap),
            "A J kappa + omega J kappa": (A @ jkap + op.omega * jkap, jkap),
        }
    else:
        lam_r = (2.0 * op.potential.gamma + 1.0) * op.omega ** 2
        pairs = {
            "A kappa - (2 gamma + 1) omega^2 kappa": (A @ kap - lam_r * kap, kap),
            "A J kappa - omega^2 J kappa": (A @ jkap - op.omega ** 2 * jkap, jkap),
        }
    pairs["A Delta_h"] = (A @ dh, dh)
    pairs["A Delta_v"] = (A @ dv, dv)
    return {name: float(np.linalg.norm(r) / (anorm * np.linalg.norm(v) + 1e-300))
            for name, (r, v) in pairs.items()}


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


def factorize(op: StabilityOperator, basis: SymBasis,
              tol_off: float = OFF_BLOCK_TOL,
              oracle: bool = True) -> FactorizationReport:
    """Factor the stability pencil along the adapted basis.

    Each coarse block is projected out of one product A C (`_Products`):
    A~_b = G_b^-1 C_b^T M (A C_b), with G_b = C_b^T M C_b.  Distinct
    isotypic blocks are M-orthogonal (M is D_n-invariant), so these are the
    diagonal blocks of C^-1 A C, which `transform` forms densely.  J needs
    no projection: the basis layout gives J C_b = C_b J_b exactly, so
    J~_b = J_b (`symbasis.standard_j`) and J leaks nothing.  The off-block
    residual of a block is the weighted invariance residual
        ||W (A C_b - C_b A~_b)||_F / ||W A C||_F,
    W = |M|^(1/2); when C^T M C = I it equals the Frobenius mass of
    C^-1 A C outside the block's rows, relative to the whole.

    At a verified relative equilibrium the leading pair (J kappa, kappa) of
    the tau/alpha block and (Delta_v, Delta_h) of the sigma block split off
    as their own quadratic sub-blocks; the split is kept only when the
    resulting partition still passes the off-block gate, otherwise the
    coarse block is reported with a note.  The lead and rest blocks are the
    matching sub-blocks of the coarse A~_b, as in C^-1 A C.
    Blocks of equal size are projected, and factored, as one stack.
    """
    prod = _Products(op, basis)
    coarse: dict[str, tuple[np.ndarray, float]] = {}
    for size in sorted({blk.size for blk in basis.blocks}):
        same = [blk for blk in basis.blocks if blk.size == size]
        idx = np.array([blk.cols for blk in same])
        ab = prod.project(idx)
        for blk, a, off in zip(same, ab, prod.residuals(idx, ab)):
            coarse[blk.label] = (a, float(off))

    notes = []
    kind = op.potential.kind
    blocks: list[BlockReport] = []
    for blk in basis.blocks:
        ab, off = coarse[blk.label]
        if op.is_releq and blk.halves():
            halves = []
            for label, cols in blk.halves():
                loc = np.ix_(np.array(cols) - blk.start, np.array(cols) - blk.start)
                sub_a = ab[loc]
                sub_off = prod.residuals(np.array([cols]), sub_a[None])[0]
                halves.append(BlockReport(label=label, cols=cols, size=len(cols),
                                          refined=True, off_residual=float(sub_off),
                                          factor=None, a_block=sub_a))
            worst = max(h.off_residual for h in halves)
            if worst <= tol_off:
                blocks += halves
                continue
            notes.append("lead pair of %s not split: off-block residual %.3g" % (blk.label, worst))
        elif blk.lead_pair and not op.is_releq:
            notes.append("not a relative equilibrium: %s lead pair kept coarse" % blk.label)
        blocks.append(BlockReport(label=blk.label, cols=blk.cols, size=blk.size, refined=False,
                                  off_residual=off, factor=None, a_block=ab))
    if not op.is_releq:
        notes.append("not a relative equilibrium (residual %.3g)" % op.releq_residual_norm)

    for size in sorted({blk.size for blk in blocks}):
        same = [blk for blk in blocks if blk.size == size]
        stack = _block_factors([blk.label for blk in same],
                               np.stack([blk.a_block for blk in same]), op.omega, kind)
        for blk, f in zip(same, stack):
            blk.factor = f

    a, b, c = op.system.type_abc
    profile = expected_degree_profile(op.system.n, a, b, c)

    orep = None
    if oracle:
        ts, sd, ld = dense_oracle(op)
        sp, lp = _factor_log_product([blk.factor for blk in blocks], ts)
        rel = _log_rel_errors(sp, lp, sd, ld)
        orep = OracleReport(samples=ts, rel_errors=rel, max_rel_error=float(np.max(rel)))

    classical = classical_checks(op) if op.is_releq else None
    gamma = op.potential.gamma if kind == "homogeneous" else None
    return FactorizationReport(kind=kind, omega=op.omega, gamma=gamma,
                               is_releq=op.is_releq, blocks=blocks, degree_profile=profile,
                               max_off_residual=max(off for _, off in coarse.values()),
                               oracle=orep, classical=classical, notes=notes)
