"""Dihedral group D_n: the range of its two-dimensional irreps.

D_n is generated by r, the rotation by 2*pi/n, and s, a reflection, with
r^n = s^2 = (s r)^2 = 1.  The library holds the group only through these
two generators (`geometry.GroupAction`); its elements r^j s^k and their
composition live in the tests' reference.

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


def rho_range(n: int) -> range:
    """k of every rho_k of D_n: up to n/2 - 1 (even n) or (n - 1)/2 (odd n)."""
    return range(1, (n // 2 - 1 if n % 2 == 0 else (n - 1) // 2) + 1)
