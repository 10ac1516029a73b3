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
The samples come in pairs (t, -t), and the pencil's determinant is even in
lambda, so the dense check takes one 2N x 2N LU per pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import StabilityOperator, apply_j
from .symbasis import SymBasis, _project, _residual, _size_stacks, standard_j

#: default off-block threshold; `factorize` splits lead pairs against it, `cli` gates on it
OFF_BLOCK_TOL = 1e-9
#: default threshold of the oracle's relative mismatch, gated by `cli`
ORACLE_TOL = 1e-8


# ---------------------------------------------------------------------------
# pencils and block factors


def _shifts(omega: float, kind: str, ts) -> tuple[np.ndarray, np.ndarray]:
    """(c, d) at each lambda in ts, for the pencil (A + c I) + d J."""
    ts = np.asarray(ts, dtype=float)
    if kind == "vortex":
        return np.full_like(ts, omega), ts
    return ts * ts - omega * omega, 2.0 * ts * omega


def _slogdets(A, omega, kind, ts) -> tuple[np.ndarray, np.ndarray]:
    """Sign and log |det| of the pencil (A + c I) + d J at each lambda in
    ts, one pencil at a time, so the dense oracle holds one 2N x 2N pencil,
    not a stack.

    Each pencil is written into one buffer reused across the samples: A,
    plus c on the diagonal, minus and plus d at the nonzero entries of J.
    Every entry takes the one rounded addition it takes when the pencil is
    formed as that sum of dense matrices, so the determinants are the dense
    pencil's bit for bit.  No 2N x 2N temporary is formed per sample (nor
    I or J), so the allocator has no large blocks to hand back to the
    system and fault in again."""
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
    roots, the spectrum of its block's linearization, and its monomial
    coefficients, ascending (the last is 1), expanded from those roots.
    The coefficients are read-only, since every caller shares them."""

    label: str
    degree: int
    spectrum: np.ndarray
    coefficients: np.ndarray

    def roots(self) -> np.ndarray:
        """The roots, sorted by real part, then imaginary part."""
        return self.spectrum


def _leja(roots: np.ndarray) -> np.ndarray:
    """Each row of a (k, d) stack of roots in Leja order: the largest root
    first, then each next the one whose product of distances to those taken
    is largest (the first of equals).  Taken roots are masked at -inf; a
    distance of 0 (an exact double root) counts -1e300 in the log, so the
    partner is still taken once."""
    rows = np.arange(len(roots))
    with np.errstate(divide="ignore"):
        logd = np.maximum(np.log(np.abs(roots[:, :, None] - roots[:, None, :])), -1e300)
        score = np.log(np.abs(roots))
    order = np.empty(roots.shape, dtype=int)
    for j in range(roots.shape[1]):
        order[:, j] = pick = np.argmax(score, axis=1)
        score = logd[rows, pick] if j == 0 else score + logd[rows, pick]
        score[rows, pick] = -np.inf
    return np.take_along_axis(roots, order, axis=1)


def _expand(roots: np.ndarray) -> np.ndarray:
    """Monomial coefficients, ascending, of prod_j (lambda - r_j) for each
    row of a (k, d) stack of roots: one factor (lambda - r_j) at a time, in
    Leja order so that neighbouring roots do not enter together and
    cancel, taken across the whole stack at once."""
    roots = _leja(roots)
    c = np.zeros((roots.shape[0], roots.shape[1] + 1), dtype=complex)
    c[:, 0] = 1.0
    for j in range(roots.shape[1]):
        c[:, 1:j + 2] -= roots[:, j:j + 1] * c[:, :j + 1]
    return c.real[:, ::-1]


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
    order = np.lexsort((spectra.imag, spectra.real))
    spectra = np.take_along_axis(spectra, order, axis=-1)
    coeffs = _expand(spectra)
    coeffs.flags.writeable = False
    return [PolyFactor(label=label, degree=lin.shape[-1], spectrum=r, coefficients=c)
            for label, r, c in zip(labels, spectra, coeffs)]


@dataclass
class BlockReport:
    label: str
    cols: list[int]
    size: int
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


def dense_oracle(op: StabilityOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sign and log magnitude of the dense determinant at 20 Chebyshev
    points spanning [-2s, 2s], s = max(1, |omega|), in descending order.

    The points are 10 exact pairs (t, -t), and only the pencils at t > 0
    are factored, one 2N x 2N LU per pair.  The pencil is Hamiltonian:
    H = M A is symmetric and M, per-point diagonal, commutes with J, so
    P(-t)^T = M P(t) M^-1 for both kinds, any masses or vorticities (mixed
    signs included), on or off a relative equilibrium.  Hence
    det P(-t) = det P(t), sign included."""
    i = np.arange(10)
    front = 2.0 * max(1.0, abs(op.omega)) * np.cos(np.pi * (2 * i + 1) / 40)
    signs, logs = _slogdets(op.matrix, op.omega, op.potential.kind, front)
    return (np.concatenate([front, -front[::-1]]),
            np.concatenate([signs, signs[::-1]]),
            np.concatenate([logs, logs[::-1]]))


def _log_rel_errors(sp, lp, sd, ld) -> np.ndarray:
    """|p - d| / max(|d|, 1e-9 max|d|), all magnitudes carried as logs."""
    lden = np.maximum(ld, np.max(ld) + np.log(1e-9))
    # same signs: |p - d| = |d| |expm1(lp - ld)|, 0 where both are 0 (the
    # difference is then nan); opposite signs: |p - d| = |p| + |d|
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = np.abs(np.expm1(lp - ld))
        same = ld + np.where(diff > 0, np.log(diff), -np.inf)
    return np.exp(np.where(sp == sd, same, np.logaddexp(lp, ld)) - lden)


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

    The radial field kappa and its rotation J kappa are eigenvectors of A:
    for the homogeneous kind A kappa = (2 gamma + 1) omega^2 kappa and
    A J kappa = omega^2 J kappa; for vortices A kappa = omega kappa and
    A J kappa = -omega J kappa.  Callers should gate on op.is_releq; away
    from a releq the identities have no reason to hold.  The translations,
    in the kernel of A at any omega, are `translation_kernel_residual`'s.
    """
    A = op.matrix
    kap = op.system.config_vector
    jkap = apply_j(kap)
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
    return {name: float(np.linalg.norm(r) / (anorm * np.linalg.norm(v) + 1e-300))
            for name, (r, v) in pairs.items()}


# ---------------------------------------------------------------------------
# main entry


@dataclass
class FactorizationReport:
    kind: str
    omega: float
    gamma: float | None
    is_releq: bool
    blocks: list[BlockReport]
    degree_profile: list[int]
    max_off_residual: float
    oracle: OracleReport
    classical: dict[str, float] | None
    notes: list[str] = field(default_factory=list)

    @property
    def lambda_degrees(self) -> list[int]:
        """Factor degrees in lambda, finest reported partition."""
        return [b.factor.degree for b in self.blocks]


def factorize(op: StabilityOperator, basis: SymBasis,
              tol_off: float = OFF_BLOCK_TOL) -> FactorizationReport:
    """Factor the stability pencil along the adapted basis.

    Each coarse block is projected out of one product A C by
    `symbasis._project`, the projection `symmetry_certificate` takes of the
    generators: A~_b = G_b^-1 C_b^T M (A C_b), with G_b = C_b^T M C_b.
    Distinct isotypic blocks are M-orthogonal (M is D_n-invariant), so
    these are the diagonal blocks of C^-1 A C, with no 2N x 2N solve.  J
    needs no projection: the basis layout gives J C_b = C_b J_b exactly, so
    J~_b = J_b (`symbasis.standard_j`) and J leaks nothing.  The off-block
    residual of a block is the weighted invariance residual
        ||W (A C_b - C_b A~_b)||_F / ||W A C||_F,
    W = |M|^(1/2), which keeps it a norm for a mixed-sign system; when
    C^T M C = I it equals the Frobenius mass of C^-1 A C outside the
    block's rows, relative to the whole.

    At a verified relative equilibrium the leading pair (J kappa, kappa) of
    the tau/alpha block and (Delta_v, Delta_h) of the sigma block split off
    as their own quadratic sub-blocks; the split is kept only when the
    resulting partition still passes the off-block gate, otherwise the
    coarse block is reported with a note.  The lead and rest blocks are the
    matching sub-blocks of the coarse A~_b, as in C^-1 A C.
    Blocks of equal size are projected, and factored, as one stack.
    """
    act = (op.matrix @ basis.matrix).T       # rows of (A C)^T: a block is a row gather
    w = np.sqrt(np.abs(op.system.mass_diag))
    total = float(np.linalg.norm(act * w))

    def off_residuals(idx: np.ndarray, ab: np.ndarray) -> np.ndarray:
        if total == 0.0:
            return np.zeros(len(idx))
        return np.linalg.norm(_residual(basis, act, idx, ab) * w, axis=(1, 2)) / total

    coarse: dict[str, tuple[np.ndarray, float]] = {}
    for same, idx in _size_stacks(basis.blocks):
        ab = _project(basis, act, idx)
        for blk, a, off in zip(same, ab, off_residuals(idx, ab)):
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
                sub_off = off_residuals(np.array([cols]), sub_a[None])[0]
                halves.append(BlockReport(label=label, cols=cols, size=len(cols),
                                          off_residual=float(sub_off), factor=None,
                                          a_block=sub_a))
            worst = max(h.off_residual for h in halves)
            if worst <= tol_off:
                blocks += halves
                continue
            notes.append("lead pair of %s not split: off-block residual %.3g" % (blk.label, worst))
        elif blk.lead_pair and not op.is_releq:
            notes.append("not a relative equilibrium: %s lead pair kept coarse" % blk.label)
        blocks.append(BlockReport(label=blk.label, cols=blk.cols, size=blk.size,
                                  off_residual=off, factor=None, a_block=ab))
    if not op.is_releq:
        notes.append("not a relative equilibrium (residual %.3g)" % op.releq_residual_norm)

    for same, _ in _size_stacks(blocks):
        stack = _block_factors([blk.label for blk in same],
                               np.stack([blk.a_block for blk in same]), op.omega, kind)
        for blk, f in zip(same, stack):
            blk.factor = f

    ts, sd, ld = dense_oracle(op)
    rel = _log_rel_errors(*_factor_log_product([blk.factor for blk in blocks], ts), sd, ld)

    classical = classical_checks(op) if op.is_releq else None
    gamma = op.potential.gamma if kind == "homogeneous" else None
    return FactorizationReport(kind=kind, omega=op.omega, gamma=gamma,
                               is_releq=op.is_releq, blocks=blocks,
                               degree_profile=[blk.size for blk in basis.blocks],
                               max_off_residual=max(off for _, off in coarse.values()),
                               oracle=OracleReport(samples=ts, rel_errors=rel,
                                                  max_rel_error=float(np.max(rel))),
                               classical=classical, notes=notes)
