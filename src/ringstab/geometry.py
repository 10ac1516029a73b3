"""Ring systems: finite planar point sets invariant under a dihedral group.

A ring system of type (a, b, c) for D_n consists of

  * a in {0, 1} points at the origin ("center"),
  * b regular n-gons centered at the origin, each with phase 0 or pi/n,
  * c "semiregular" 2n-gons: orbits of a point at angle mu with
    0 < mu < pi/n, i.e. vertices at angles +-mu + 2*pi*j/n.

The group acts with r = rotation by 2*pi/n and s = reflection across the
x-axis (`RingSystem.group_action`); every admissible ring is invariant under
both.  Points carry masses (or vorticities), constant along each ring but
otherwise arbitrary nonzero reals.  No two points may coincide; since each
ring is one D_n orbit, that is checked at each ring's first point only.

Each ring lists its points in one fixed order (`ring_positions`); the
group action reads its point permutations off that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: how far a regular ring's phase may lie from 0 or pi/n
PHASE_TOL = 1e-12
#: the value fields each ring kind takes, in the order reports list them
RING_VALUES = {"center": ("mass",), "regular": ("mass", "radius", "phase"),
               "semiregular": ("mass", "radius", "half_gap")}


@dataclass(frozen=True)
class RingSpec:
    """One ring: kind in {"center", "regular", "semiregular"}.

    phase applies to regular rings (0.0 or pi/n); half_gap is the angle mu
    of semiregular rings.  mass is per point and must be nonzero.
    """

    kind: str
    mass: float
    radius: float = 0.0
    phase: float = 0.0
    half_gap: float = 0.0

    def __post_init__(self):
        if self.kind not in RING_VALUES:
            raise ValueError("unknown ring kind %r" % (self.kind,))


def center(mass: float) -> RingSpec:
    return RingSpec("center", mass)


def regular(radius: float, mass: float, phase: float = 0.0) -> RingSpec:
    return RingSpec("regular", mass, radius=radius, phase=phase)


def semiregular(radius: float, half_gap: float, mass: float) -> RingSpec:
    return RingSpec("semiregular", mass, radius=radius, half_gap=half_gap)


@dataclass(frozen=True)
class GroupAction:
    """sigma(r) and sigma(s), the generators of D_n, applied by index
    scatters, never as a dense 2N x 2N matrix; every other element is a
    product of these two.

    Row 0 of perm and blocks holds r, row 1 holds s:
    (sigma(g) w)_perm[k, i] = blocks[k] w_i.
    """

    n: int
    perm: np.ndarray               # (2, N) point permutations of r and s
    blocks: np.ndarray             # (2, 2, 2) planar blocks of r and s

    def left(self, gen: str, X: np.ndarray) -> np.ndarray:
        """sigma(gen) @ X for gen "r" or "s" and X with 2N rows: each
        point's rows, times the 2x2 block, scattered to its image."""
        if gen not in ("r", "s"):
            raise ValueError("unknown generator %r: need 'r' or 's'" % (gen,))
        k = int(gen == "s")
        npts = self.perm.shape[1]
        out = np.empty(X.shape, dtype=np.result_type(self.blocks, X))
        out.reshape(npts, 2, -1)[self.perm[k]] = self.blocks[k] @ X.reshape(npts, 2, -1)
        return out


@dataclass
class RingSystem:
    """A built ring system: positions, masses, and the group action on labels."""

    n: int
    rings: list[RingSpec]
    positions: np.ndarray          # (N, 2)
    masses: np.ndarray             # (N,)
    orbit_slices: list[slice]

    @property
    def npoints(self) -> int:
        return self.positions.shape[0]

    @property
    def type_abc(self) -> tuple[int, int, int]:
        a = sum(1 for r in self.rings if r.kind == "center")
        b = sum(1 for r in self.rings if r.kind == "regular")
        c = sum(1 for r in self.rings if r.kind == "semiregular")
        return a, b, c

    @property
    def config_vector(self) -> np.ndarray:
        """Flattened positions (x_1, y_1, ..., x_N, y_N)."""
        return self.positions.reshape(-1).copy()

    @property
    def mass_diag(self) -> np.ndarray:
        """Diagonal of M = diag(m_1, m_1, ..., m_N, m_N), length 2N."""
        return np.repeat(self.masses, 2)

    def group_action(self) -> "GroupAction":
        """The action of the generators r and s as index arrays, read off
        the ring order of `ring_positions`.

        On a ring of m points numbered from 0, r moves point l to
        l + step and s moves it to shift - l, both mod m.  step is 2 on a
        semiregular ring, whose (+mu, -mu) pairs move together, and 1
        otherwise.  shift is 1 on a semiregular ring, where s swaps +mu at
        pair j with -mu at pair -j; -1 on a `staggered` ring, whose point j
        s takes to -j - 1; and 0 otherwise.
        """
        n = self.n
        perm = np.empty((2, self.npoints), dtype=int)
        for sl, spec in zip(self.orbit_slices, self.rings):
            m = sl.stop - sl.start
            if spec.kind == "semiregular":
                step, shift = 2, 1
            else:
                step, shift = 1, -1 if staggered(n, spec) else 0
            local = np.arange(m)
            perm[0, sl] = sl.start + (local + step) % m
            perm[1, sl] = sl.start + (shift - local) % m
        theta = 2.0 * np.pi / n
        c, s = np.cos(theta), np.sin(theta)
        blocks = np.array([[[c, -s], [s, c]], [[1.0, 0.0], [0.0, -1.0]]])
        return GroupAction(n=n, perm=perm, blocks=blocks)


def check_ring(n: int, spec: RingSpec) -> None:
    """Raise ValueError unless spec is an admissible ring of D_n: a nonzero
    finite mass; for non-center rings a positive finite radius; a regular
    phase within PHASE_TOL of 0 or pi/n; a semiregular 0 < mu < pi/n.  The
    message names no ring; callers prefix it."""
    if spec.mass == 0.0 or not math.isfinite(spec.mass):
        raise ValueError("invalid mass %g (must be nonzero and finite)" % spec.mass)
    if spec.kind == "center":
        return
    if not 0.0 < spec.radius < math.inf:
        raise ValueError("invalid radius %g (must be positive)" % spec.radius)
    if spec.kind == "regular":
        if not (abs(spec.phase) < PHASE_TOL or abs(spec.phase - math.pi / n) < PHASE_TOL):
            raise ValueError("invalid phase %.12g: regular rings allow 0 or pi/n" % spec.phase)
    elif not 0.0 < spec.half_gap < math.pi / n:
        raise ValueError("invalid half_gap %.12g: need 0 < mu < pi/n" % spec.half_gap)


def staggered(n: int, spec: RingSpec) -> bool:
    """Whether spec is a regular ring at phase pi/n rather than 0, taken as
    the nearer of the two: `check_ring` admits no other phase."""
    return spec.kind == "regular" and spec.phase >= 0.5 * math.pi / n


def ring_positions(n: int, spec: RingSpec) -> np.ndarray:
    """Points of one ring in deterministic order, after `check_ring`.

    Regular rings: angles phase + 2*pi*j/n, j ascending.  Semiregular rings:
    pairs (+mu, -mu) shifted by 2*pi*j/n, j ascending.  The adapted basis
    reads each point's interleave sign from this order, and the group
    action its point permutations.
    """
    check_ring(n, spec)
    if spec.kind == "center":
        return np.zeros((1, 2))
    base = 2.0 * np.pi * np.arange(n) / n
    if spec.kind == "regular":
        ang = spec.phase + base
    else:
        ang = np.empty(2 * n)
        ang[0::2] = spec.half_gap + base
        ang[1::2] = -spec.half_gap + base
    return spec.radius * np.column_stack([np.cos(ang), np.sin(ang)])


def _layout(n: int, rings: list[RingSpec]) -> tuple[np.ndarray, np.ndarray, list[slice]]:
    """Positions, masses and orbit slices of the rings, in order; raises
    ValueError for a ring `check_ring` refuses (prefixed "ring i: ") and
    for two points that coincide.

    The coincidence rule is applied at the first point p of each non-center
    ring only.  D_n carries every point of a ring onto that ring's first
    point, so it carries any pair of coinciding points onto a pair at a
    first point; a center can only meet a ring point.  p and its nearest
    point q coincide when |q_p - q_q| < 1e-9 * max(max |q|, 1).
    """
    chunks, masses, slices = [], [], []
    start = 0
    for idx, spec in enumerate(rings):
        try:
            pts = ring_positions(n, spec)
        except ValueError as exc:
            raise ValueError("ring %d: %s" % (idx, exc)) from None
        chunks.append(pts)
        masses.extend([spec.mass] * len(pts))
        slices.append(slice(start, start + len(pts)))
        start += len(pts)
    positions = np.vstack(chunks)
    first = np.array([sl.start for sl, spec in zip(slices, rings) if spec.kind != "center"])
    d = np.linalg.norm(positions[first, None, :] - positions[None, :, :], axis=2)
    d[np.arange(len(first)), first] = np.inf
    tol = 1e-9 * max(np.max(np.linalg.norm(positions, axis=1)), 1.0)
    hit = np.flatnonzero(d.min(axis=1) < tol)
    if hit.size:
        i = hit[0]
        raise ValueError("collision: points %d and %d coincide"
                         % (first[i], int(np.argmin(d[i]))))
    return positions, np.asarray(masses, dtype=float), slices


def build(n: int, rings: list[RingSpec]) -> RingSystem:
    """Assemble and validate a ring system for D_n: at most one ring is a
    center and at least one is not, then `_layout` checks every ring and
    the coincidence rule."""
    if n < 2:
        raise ValueError("group order mismatch: need n >= 2")
    if not rings:
        raise ValueError("empty ring list")
    if sum(1 for r in rings if r.kind == "center") > 1:
        raise ValueError("at most one center ring allowed")
    if all(r.kind == "center" for r in rings):
        raise ValueError("need at least one non-center ring")
    positions, masses, slices = _layout(n, rings)
    return RingSystem(n=n, rings=list(rings), positions=positions, masses=masses,
                      orbit_slices=slices)
