"""Ring systems: finite planar point sets invariant under a dihedral group.

A ring system of type (a, b, c) for D_n consists of

  * a in {0, 1} points at the origin ("center"),
  * b regular n-gons centered at the origin, each with phase 0 or pi/n,
  * c "semiregular" 2n-gons: orbits of a point at angle mu with
    0 < mu < pi/n, i.e. vertices at angles +-mu + 2*pi*j/n.

The group acts with r = rotation by 2*pi/n and s = reflection across the
x-axis (`dihedral.planar_action`); every admissible ring is invariant under
both.  Points carry masses (or vorticities), constant along each ring but
otherwise arbitrary nonzero reals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dihedral import (DihedralElement, full_group, planar_action, reflection,
                       rotation)

#: matching tolerance for the permutation action, relative to the largest radius
MATCH_RTOL = 1e-9
#: how far a regular ring's phase may lie from 0 or pi/n
PHASE_TOL = 1e-12


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
        if self.kind not in ("center", "regular", "semiregular"):
            raise ValueError("unknown ring kind %r" % (self.kind,))


def center(mass: float) -> RingSpec:
    return RingSpec("center", mass)


def regular(radius: float, mass: float, phase: float = 0.0) -> RingSpec:
    return RingSpec("regular", mass, radius=radius, phase=phase)


def semiregular(radius: float, half_gap: float, mass: float) -> RingSpec:
    return RingSpec("semiregular", mass, radius=radius, half_gap=half_gap)


def _element_index(g: DihedralElement, n: int) -> int:
    if g.n != n:
        raise ValueError("group order mismatch: element of D_%d on a D_%d system" % (g.n, n))
    return g.rot + g.ref * n


@dataclass(frozen=True)
class GroupAction:
    """sigma(g) for every g of D_n, applied by index gathers, never as a
    dense 2N x 2N matrix.

    (sigma(g) w)_perm[g, i] = planar_action(g) w_i.  Elements are indexed in
    `full_group` order: r^j s^k sits at j + k n.
    """

    n: int
    perm: np.ndarray               # (2n, N) point permutations
    inverse: np.ndarray            # (2n, N) their inverses
    blocks: np.ndarray             # (2n, 2, 2) planar_action of each element

    def left(self, g: DihedralElement, X: np.ndarray) -> np.ndarray:
        """sigma(g) @ X for X with 2N rows: a row gather, then the 2x2 block."""
        k = _element_index(g, self.n)
        rows = X.reshape(self.perm.shape[1], 2, -1)[self.inverse[k]]
        return (self.blocks[k] @ rows).reshape(X.shape)

    def right(self, X: np.ndarray, g: DihedralElement) -> np.ndarray:
        """X @ sigma(g) for X with 2N columns: a column gather, then the 2x2 block."""
        k = _element_index(g, self.n)
        cols = X.reshape(-1, self.perm.shape[1], 2)[:, self.perm[k]]
        return (cols @ self.blocks[k]).reshape(X.shape)


@dataclass
class RingSystem:
    """A built ring system: positions, masses, and the group action on labels."""

    n: int
    rings: list[RingSpec]
    positions: np.ndarray          # (N, 2)
    masses: np.ndarray             # (N,)
    orbit_of: np.ndarray           # (N,) ring index per point
    orbit_slices: list[slice] = field(default_factory=list)

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

    def orbit_points(self, i: int) -> np.ndarray:
        return self.positions[self.orbit_slices[i]]

    def group(self) -> list[DihedralElement]:
        return full_group(self.n)

    def group_action(self) -> "GroupAction":
        """The action of every element of D_n as index arrays.

        The point permutations of the generators r and s come from one
        vectorized nearest-point match; those of r^j and r^j s follow by
        composing them.
        """
        n, npts = self.n, self.npoints
        gens = (rotation(n), reflection(n))
        moved = np.stack([self.positions @ planar_action(g).T for g in gens])   # (2, N, 2)
        d = np.hypot(moved[:, :, None, 0] - self.positions[:, 0],
                     moved[:, :, None, 1] - self.positions[:, 1])             # (2, N, N)
        match = np.argmin(d, axis=2)                               # (2, N)
        scale = max(np.max(np.abs(self.positions)), 1.0)
        off = np.take_along_axis(d, match[:, :, None], axis=2)[:, :, 0] > MATCH_RTOL * scale
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
        inverse = np.empty_like(perm)
        np.put_along_axis(inverse, perm, np.arange(npts)[None, :], axis=1)
        blocks = np.array([planar_action(g) for g in full_group(n)])
        return GroupAction(n=n, perm=perm, inverse=inverse, blocks=blocks)

    def sigma_matrix(self, g: DihedralElement) -> np.ndarray:
        """2N x 2N matrix of g acting on displacement fields.

        (sigma(g) w)_i = g . w_{g^{-1}(i)}: block (pi[i], i) is the planar
        action of g, where pi is the point permutation of g, with
        positions[pi[i]] = planar_action(g) @ positions[i].
        """
        k = _element_index(g, self.n)
        perm = self.group_action().perm[k]
        act = planar_action(g)
        out = np.zeros((2 * self.npoints, 2 * self.npoints))
        for i in range(self.npoints):
            j = perm[i]
            out[2 * j:2 * j + 2, 2 * i:2 * i + 2] = act
        return out


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


def ring_positions(n: int, spec: RingSpec) -> np.ndarray:
    """Points of one ring in deterministic order, after `check_ring`.

    Regular rings: angles phase + 2*pi*j/n, j ascending.  Semiregular rings:
    pairs (+mu, -mu) shifted by 2*pi*j/n, j ascending; the adapted basis
    reads each point's interleave sign from this order.
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


def build(n: int, rings: list[RingSpec]) -> RingSystem:
    """Assemble and validate a ring system for D_n: every ring passes
    `check_ring` (its message prefixed "ring i: "), at most one is a center,
    at least one is not, and no two points collide."""
    if n < 2:
        raise ValueError("group order mismatch: need n >= 2")
    if not rings:
        raise ValueError("empty ring list")
    if sum(1 for r in rings if r.kind == "center") > 1:
        raise ValueError("at most one center ring allowed")
    if all(r.kind == "center" for r in rings):
        raise ValueError("need at least one non-center ring")
    chunks, masses, orbit_of, slices = [], [], [], []
    start = 0
    for idx, spec in enumerate(rings):
        try:
            pts = ring_positions(n, spec)
        except ValueError as exc:
            raise ValueError("ring %d: %s" % (idx, exc)) from None
        chunks.append(pts)
        masses.extend([spec.mass] * len(pts))
        orbit_of.extend([idx] * len(pts))
        slices.append(slice(start, start + len(pts)))
        start += len(pts)
    positions = np.vstack(chunks)
    _check_collisions(positions)
    return RingSystem(n=n, rings=list(rings), positions=positions,
                      masses=np.asarray(masses, dtype=float),
                      orbit_of=np.asarray(orbit_of, dtype=int),
                      orbit_slices=slices)
