"""Dihedral group D_n: elements, composition, the planar action, and the
range of its two-dimensional irreps.

Elements are written r^j s^k with r the rotation by 2*pi/n, s a reflection,
j in {0..n-1}, k in {0,1}.  The composition law is

    (r^j s^k) (r^j' s^k') = r^(j + (-1)^k j') s^(k xor k').

The real irreps are named by the keys of the multiplicity law
(`symbasis.multiplicities`), which the blocks of the adapted basis, their
symmetry certificate and the reports share, each in this fixed orthogonal
realization:

    tau   : trivial, degree 1
    alpha : sign of the reflection part, degree 1
    phi   : (-1)^j on r^j and on r^j s            (n even only)
    psi   : (-1)^j on r^j, (-1)^(j+1) on r^j s    (n even only)
    rho_k : degree 2, rotation/reflection form, k = 1 .. (n-1)//2,
            and for even n only up to n/2 - 1 (`rho_range`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DihedralElement:
    """One element r^rot s^ref of D_n."""

    n: int
    rot: int
    ref: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("group order mismatch: need n >= 2")
        object.__setattr__(self, "rot", self.rot % self.n)
        object.__setattr__(self, "ref", self.ref % 2)

    def __mul__(self, other: "DihedralElement") -> "DihedralElement":
        if self.n != other.n:
            raise ValueError("group order mismatch: cannot compose D_%d with D_%d"
                             % (self.n, other.n))
        sign = -1 if self.ref else 1
        return DihedralElement(self.n, self.rot + sign * other.rot, self.ref ^ other.ref)

    @property
    def is_identity(self) -> bool:
        return self.rot == 0 and self.ref == 0

    def __repr__(self):
        if self.is_identity:
            return "e(D_%d)" % self.n
        head = "r^%d" % self.rot if self.rot else ""
        tail = "s" if self.ref else ""
        return "%s%s(D_%d)" % (head, tail, self.n)


def rotation(n: int, j: int = 1) -> DihedralElement:
    return DihedralElement(n, j, 0)


def reflection(n: int, j: int = 0) -> DihedralElement:
    """The reflection r^j s."""
    return DihedralElement(n, j, 1)


def full_group(n: int) -> list[DihedralElement]:
    """All 2n elements, rotations first, each family in ascending rotation order."""
    return [DihedralElement(n, j, k) for k in (0, 1) for j in range(n)]


def planar_action(g: DihedralElement) -> np.ndarray:
    """2x2 matrix of g acting on the plane with s = reflection across the x-axis.

    For n > 2 this is the standard representation rho_1; the admissible
    ring systems are invariant under it.
    """
    theta = 2.0 * np.pi * g.rot / g.n
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    if g.ref:
        return rot @ np.array([[1.0, 0.0], [0.0, -1.0]])
    return rot


def rho_range(n: int) -> range:
    """k of every rho_k of D_n: up to n/2 - 1 (even n) or (n - 1)/2 (odd n)."""
    return range(1, (n // 2 - 1 if n % 2 == 0 else (n - 1) // 2) + 1)
