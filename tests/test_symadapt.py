import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ringstab as rs
from ringstab import cli, symbasis
from ringstab.dynamics import _equivariance_residuals, apply_j
from ringstab.geometry import RingSystem
from ringstab.stability import factorize
from ringstab.symbasis import (gram_residual, multiplicities, standard_j,
                               symmetry_certificate, translation_field)
import reference
from reference import (dense_projectors, equivariance_residuals, j_matrix, m_inner,
                       matched_perm, reflection, rotation, sigma_matrices, sigma_matrix)
from test_acceptance import grid_system, type_grid

RNG = np.random.default_rng(77121)


def sample_systems():
    return [
        rs.build(2, [rs.regular(1.0, 1.0)]),
        rs.build(2, [rs.center(2.0), rs.semiregular(1.3, 0.5, 1.0)]),
        rs.build(3, [rs.regular(1.0, 2.0), rs.semiregular(2.1, 0.3, 1.0)]),
        rs.build(4, [rs.center(1.5), rs.regular(1.0, 1.0), rs.regular(1.7, 0.5, phase=np.pi / 4)]),
        rs.build(5, [rs.regular(1.0, 1.0)]),
        rs.build(6, [rs.center(1.0), rs.semiregular(1.0, 0.2, 1.0), rs.regular(2.0, 3.0)]),
    ]


def composition_residuals(dense):
    """Frobenius residuals of the composition table of the dense projector
    definitions: p_ij p_kl = delta_jk p_il within an irrep (a
    one-dimensional irrep's projector is its part (1, 1)), every product
    across distinct irreps zero, and the diagonal parts summing to E."""
    out = {}
    for (ka, i, j), pa in dense.items():
        for (kb, k, l), pb in dense.items():
            expect = dense[ka, i, l] if ka == kb and j == k else 0.0
            out[ka, i, j, kb, k, l] = np.linalg.norm(pa @ pb - expect)
    E = np.eye(len(next(iter(dense.values()))))
    out["completeness"] = np.linalg.norm(sum(P for (_, i, j), P in dense.items() if i == j) - E)
    return out


@pytest.mark.parametrize("idx", range(6))
def test_projector_algebra(idx):
    rep = composition_residuals(dense_projectors(sample_systems()[idx]))
    assert max(rep.values()) < 1e-12


#: the projector that J carries each one-dimensional projector to
J_PARTNER = {"tau": "alpha", "alpha": "tau", "phi": "psi", "psi": "phi"}


@pytest.mark.parametrize("idx", range(6))
def test_j_relations(idx):
    """J commutes with sigma(r) and anticommutes with sigma(s); so J p_tau =
    p_alpha J, J p_phi = p_psi J, and on each rho_k J p_ii = p_i'i' J and
    J p_ij = -p_i'j' J, with 1' = 2 and 2' = 1."""
    sys = sample_systems()[idx]
    J, n = j_matrix(sys.npoints), sys.n
    R, S = sigma_matrix(sys, rotation(n)), sigma_matrix(sys, reflection(n))
    rep = {"J r - r J": J @ R - R @ J, "J s + s J": J @ S + S @ J}
    dense = dense_projectors(sys)
    for (key, i, j), P in dense.items():
        if key.startswith("rho_"):
            sign = 1.0 if i == j else -1.0
            rep[key, i, j] = J @ P - sign * dense[key, 3 - i, 3 - j] @ J
        else:
            rep[key, i, j] = J @ P - dense[J_PARTNER[key], 1, 1] @ J
    assert max(np.linalg.norm(v) for v in rep.values()) < 1e-12


def trace_ranks(sys):
    """|trace - multiplicity| of each diagonal part of the dense projector
    definitions; the trace of an idempotent is its rank."""
    mult = multiplicities(sys.n, *sys.type_abc)
    return {(key, i): abs(np.trace(P) - mult[key])
            for (key, i, j), P in dense_projectors(sys).items() if i == j}


@pytest.mark.parametrize("n,a,b,c", [(2, 0, 1, 0), (2, 1, 0, 1), (3, 0, 2, 0),
                                     (4, 1, 2, 0), (4, 1, 2, 1), (5, 0, 1, 1),
                                     (6, 1, 1, 1), (7, 0, 0, 2)])
def test_multiplicity_formula(n, a, b, c):
    mult = multiplicities(n, a, b, c)
    w = b + 2 * c
    if n == 2:
        assert mult["tau"] == mult["alpha"] == w
        assert mult["phi"] == mult["psi"] == a + w
        assert "rho_1" not in mult
    else:
        assert mult["tau"] == mult["alpha"] == w
        if n % 2 == 0:
            assert mult["phi"] == mult["psi"] == w
        assert mult["rho_1"] == a + 2 * w
        for k in range(2, (n - 1) // 2 + 1):
            assert mult["rho_%d" % k] == 2 * w
    # isotypic dimensions must sum to the full phase space dimension
    rings = []
    if a:
        rings.append(rs.center(2.0))
    rings += [rs.regular(1.0 + 0.8 * i, 1.0 + 0.3 * i) for i in range(b)]
    rings += [rs.semiregular(3.0 + 0.9 * i, np.pi / (n * (3 + i)), 0.5) for i in range(c)]
    sys = rs.build(n, rings)
    assert max(trace_ranks(sys).values()) < 1e-12
    sizes = [blk.size for blk in rs.assemble_global_basis(sys).blocks]
    assert sum(sizes) == 2 * sys.npoints


def test_isotypic_example_dimensions():
    sys = rs.build(4, [rs.center(2.0), rs.regular(1.0, 1.0),
                       rs.regular(1.6, 0.5), rs.semiregular(2.4, 0.3, 1.0)])
    res = trace_ranks(sys)
    assert list(res) == [("tau", 1), ("alpha", 1), ("phi", 1), ("psi", 1),
                         ("rho_1", 1), ("rho_1", 2)]
    assert max(res.values()) < 1e-12
    assert multiplicities(4, *sys.type_abc) == {"tau": 4, "alpha": 4, "phi": 4, "psi": 4,
                                                "rho_1": 9}


def test_trace_ranks_match_svd_ranks_on_the_grid():
    """The SVD rank of every isotypic piece of the dense definitions is the
    multiplicity law's count, and so is its trace."""
    for n, a, b, c in type_grid():
        sys = grid_system(n, a, b, c)
        mult = multiplicities(n, a, b, c)
        pieces = [(mult[key], P) for (key, i, j), P in dense_projectors(sys).items() if i == j]
        assert [np.linalg.matrix_rank(P) for _, P in pieces] == [m for m, _ in pieces], \
            (n, a, b, c)
        assert max(abs(np.trace(P) - m) for m, P in pieces) < 1e-11, (n, a, b, c)


def test_standard_part_rank():
    sys = rs.build(4, [rs.center(4.0), rs.regular(1.0, 0.5), rs.regular(1.8, 1.0)])
    p11 = dense_projectors(sys)["rho_1", 1, 1]
    assert np.linalg.matrix_rank(p11, tol=1e-9) == 5


def test_transfer_isometry_and_nilpotency():
    sys = rs.build(5, [rs.regular(1.0, 1.0), rs.semiregular(1.8, 0.25, 2.0)])
    dense = dense_projectors(sys)
    for k in (1, 2):
        p11, p22, p12, p21 = (dense["rho_%d" % k, i, j]
                              for i, j in ((1, 1), (2, 2), (1, 2), (2, 1)))
        assert np.linalg.norm(p12 @ p21 - p11) < 1e-12
        assert np.linalg.norm(p21 @ p21) < 1e-12
        v = p22 @ RNG.standard_normal(2 * sys.npoints)
        moved = p12 @ v
        assert_allclose(m_inner(sys, moved, moved), m_inner(sys, v, v), rtol=1e-10)


def radial_field(sys):
    return (sys.positions / np.linalg.norm(sys.positions, axis=1)[:, None]).ravel()


def test_tau_projector_fixes_radial_field():
    for spec, size in ((rs.regular(1.7, 2.0), 5), (rs.semiregular(1.7, 0.3, 2.0), 10)):
        sys = rs.build(5, [spec])
        kappa = radial_field(sys)
        assert_allclose(dense_projectors(sys)["tau", 1, 1] @ kappa, kappa,
                        atol=1e-13)
        # <kappa, kappa>_M = m R^2 ... with unit radial vectors just m |orbit|
        assert_allclose(m_inner(sys, kappa, kappa), 2.0 * size, rtol=1e-13)
        assert abs(m_inner(sys, kappa, apply_j(kappa))) < 1e-13


def test_translation_field_exact():
    # the orbits' x fields sum to the x translation of all points, and J
    # turns that into the y translation, J (1, 0) = (0, 1)
    sys = rs.build(4, [rs.center(1.0), rs.regular(1.0, 2.0), rs.semiregular(2.0, 0.4, 0.5)])
    t = sum(translation_field(sys, orbit=i) for i in range(3))
    expect = np.zeros(2 * sys.npoints)
    expect[0::2] = 1.0
    assert np.array_equal(t, expect)
    assert np.array_equal(apply_j(t), np.roll(expect, 1))


def test_orbit_combination_constants():
    # center 4 with two squares of masses 1/2 and 1: the translation seed
    # combines with coefficients -2 and -1 exactly
    sys = rs.build(4, [rs.center(4.0), rs.regular(1.0, 0.5), rs.regular(1.8, 1.0)])
    t0 = translation_field(sys, orbit=0)
    c = [-m_inner(sys, t0, t0) / m_inner(sys, translation_field(sys, orbit=i),
                                         translation_field(sys, orbit=i))
         for i in (1, 2)]
    assert c == [-2.0, -1.0]


def test_orbit_basis_column_counts():
    sys = rs.build(5, [rs.regular(1.0, 1.0)])
    sizes = [(b.label, b.size) for b in rs.assemble_global_basis(sys).blocks]
    assert sizes == [("tau_alpha", 2), ("rho_2", 4), ("sigma", 4)]
    semi = rs.build(4, [rs.semiregular(1.0, 0.3, 1.0)])
    sizes = [(b.label, b.size) for b in rs.assemble_global_basis(semi).blocks]
    assert sizes == [("tau_alpha", 4), ("phi_psi", 4), ("sigma", 8)]


def test_orbit_basis_j_pairing():
    # one semiregular orbit: every block pairs more than one u column
    basis = rs.assemble_global_basis(rs.build(4, [rs.semiregular(1.0, 0.3, 1.0)]))
    for plan in basis.blocks:
        group = basis.matrix[:, plan.start:plan.start + plan.size]
        half = plan.pairs
        assert_allclose(group[:, :half], np.column_stack(
            [apply_j(group[:, half + i]) for i in range(half)]), atol=1e-14)


def assemble(n, rings):
    return rs.assemble_global_basis(rs.build(n, rings))


def test_global_basis_structure():
    basis = assemble(6, [rs.center(1.0), rs.regular(1.0, 1.0),
                         rs.semiregular(1.8, 0.2, 0.5)])
    dim = 2 * basis.system.npoints
    assert basis.matrix.shape == (dim, dim)
    assert basis.cond < 50.0
    assert basis.m_orthogonal == "full"
    assert gram_residual(basis) < 1e-12
    # plans tile the column range in order
    stops = [p.start for p in basis.blocks] + [dim]
    assert stops[0] == 0
    assert all(p.start + p.size == stops[i + 1] for i, p in enumerate(basis.blocks))
    labels = [p.label for p in basis.blocks]
    assert labels == ["tau_alpha", "phi_psi", "rho_2", "sigma"]
    md = basis.system.mass_diag
    gram = basis.matrix.T @ (md[:, None] * basis.matrix)
    assert_allclose(np.abs(np.diag(gram)), np.ones(dim), atol=1e-11)


def test_global_basis_j_pairs():
    basis = assemble(5, [rs.regular(1.0, 1.0), rs.regular(1.9, 2.0, phase=np.pi / 5)])
    for plan in basis.blocks:
        cb = basis.matrix[:, plan.cols]
        assert np.array_equal(apply_j(cb.T).T, cb @ standard_j(plan.pairs)), plan.label


def signature_residual(basis):
    """max |C^T M C - diag(+-1)|, the signs those of the diagonal."""
    C = basis.matrix
    G = C.T @ (basis.system.mass_diag[:, None] * C)
    return float(np.max(np.abs(G - np.diag(np.sign(np.diag(G))))))


def test_mixed_sign_masses_normalize_to_signature():
    """Every column is scaled to |u^T M u| = 1 whatever the signs of the
    masses, so a full basis has C^T M C = diag(+-1): on the mixed-sign
    systems whose basis is full, and on a center and two rings of opposite
    sign, whose condition number then reads 8.85 at every n (unnormalized,
    it grew like n: 54.3 at n = 32, 225.6 at n = 128).  With masses all
    negative C = |M|^(-1/2) Q, and the closed-form condition number holds."""
    full = [rs.assemble_global_basis(sys) for sys in mixed_sign_systems()]
    full = [basis for basis in full if basis.m_orthogonal == "full"]
    conds = []
    for n in (8, 32, 128):
        full.append(assemble(n, [rs.center(2.0), rs.regular(1.0, 1.0),
                                 rs.regular(1.8, -0.5, phase=np.pi / n)]))
        assert full[-1].m_orthogonal == "full"
        conds.append(full[-1].cond)
    for basis in full:
        assert signature_residual(basis) <= 1e-13, basis.system.n
        assert abs(basis.cond - np.linalg.cond(basis.matrix)) <= 1e-12 * basis.cond
    assert max(conds) < 9.0 and max(conds) - min(conds) <= 1e-10 * max(conds), conds
    basis = assemble(7, [rs.center(-2.0), rs.regular(1.0, -1.0), rs.semiregular(1.9, 0.2, -0.5)])
    assert basis.m_orthogonal == "full"
    G = basis.matrix.T @ (basis.system.mass_diag[:, None] * basis.matrix)
    assert np.max(np.abs(G + np.eye(len(G)))) <= 1e-13
    assert abs(basis.cond - np.linalg.cond(basis.matrix)) <= 1e-12 * basis.cond


def test_symplectic_residuals_vanish():
    """Omega_M(u, v) = u^T M J v vanishes on the tau component, and each
    transfer p12, p21 is Hamiltonian for it: M J p_ij is symmetric."""
    sys = rs.build(4, [rs.center(1.0), rs.regular(1.0, 1.0), rs.semiregular(2.0, 0.5, 2.0)])
    MJ = sys.mass_diag[:, None] * j_matrix(sys.npoints)
    dense = dense_projectors(sys)
    tau = dense["tau", 1, 1]
    assert np.linalg.norm(tau.T @ MJ @ tau) < 1e-10 * np.linalg.norm(MJ)
    for (key, i, j), P in dense.items():
        if i != j:
            X = MJ @ P
            assert np.linalg.norm(X - X.T) < 1e-10 * np.linalg.norm(X), (key, i, j)


def mixed_sign_systems():
    """The mixed-sign D_3 pair, and two systems whose lead-block total has
    zero M-norm, so that their bases are partial: the shielded vortex
    (sigma: circulation -6 + 6) and a D_6 pair (tau/alpha: sum m r^2 =
    6 - 6)."""
    return [rs.build(3, [rs.regular(1.0, 1.0), rs.regular(2.0, -0.5)]),
            rs.build(6, [rs.center(-6.0), rs.regular(1.0, 1.0)]),
            rs.build(6, [rs.regular(1.0, 1.0), rs.regular(2.0, -0.25, phase=np.pi / 6)])]


def test_symmetry_certificate_names_every_relation_of_every_block():
    # mixed signs, partial bases included: the certificate still holds at
    # rounding level
    for sys in sample_systems() + mixed_sign_systems():
        basis = rs.assemble_global_basis(sys)
        cert = symmetry_certificate(basis)
        assert list(cert) == ["%s %s" % (blk.label, rel) for blk in basis.blocks
                              for rel in ("r invariance", "s invariance", "minimal polynomial",
                                          "s^2", "(s r)^2", "J r", "J s")]
        assert max(cert.values()) < 1e-13, (sys.n, max(cert, key=cert.get))


@pytest.mark.parametrize("g", ["r", "s"])
def test_projection_matches_the_dense_blocks(g):
    """`_project` of sigma(g) C, one stack per block size, against the
    diagonal blocks of C^-1 sigma(g) C from the dense sigma matrix."""
    worst = 0.0
    systems = [grid_system(*key) for key in type_grid()] + mixed_sign_systems()
    for sys in systems:
        basis = rs.assemble_global_basis(sys)
        C = basis.matrix
        moved = sigma_matrix(sys, rotation(sys.n) if g == "r" else reflection(sys.n)) @ C
        dense = np.linalg.solve(C, moved)
        for size in {blk.size for blk in basis.blocks}:
            same = [blk.cols for blk in basis.blocks if blk.size == size]
            for cols, p in zip(same, symbasis._project(basis, moved.T, np.array(same))):
                worst = max(worst, np.linalg.norm(p - dense[np.ix_(cols, cols)]))
    assert worst <= 1e-13


# --- the closed-form basis against the projector oracles -------------------

def grid_systems(n):
    """The acceptance type grid of tests/test_acceptance.py at one n."""
    for a in (0, 1):
        for b in (0, 1, 2):
            for c in (0, 1, 2):
                if b + c == 0:
                    continue
                rings = [rs.center(1.3)] if a else []
                rings += [rs.regular(1.0 + 1.1 * i, 1.0 + 0.5 * i,
                                     phase=(np.pi / n if i % 2 else 0.0)) for i in range(b)]
                rings += [rs.semiregular(3.3 + 1.3 * i, np.pi / (n * (3 + i)), 0.8 + 0.3 * i)
                          for i in range(c)]
                yield (n, a, b, c), rs.build(n, rings)


def block_projectors(dense, label):
    """(projector onto the block's isotypic component, projector whose
    image holds the block's u side), from the dense definitions."""
    if label in ("tau_alpha", "phi_psi"):
        first, second = label.split("_")
        u = dense[first, 1, 1]
        return u + dense[second, 1, 1], u
    irrep = "rho_1" if label == "sigma" else label
    u = dense[irrep, 1, 1]
    return u + dense[irrep, 2, 2], u


@pytest.mark.parametrize("n", range(2, 13))
def test_closed_form_basis_matches_projectors(n):
    for key, sys in grid_systems(n):
        basis = rs.assemble_global_basis(sys)
        dense = dense_projectors(sys)
        for plan in basis.blocks:
            C = basis.matrix[:, plan.cols]
            P, P_u = block_projectors(dense, plan.label)
            assert np.linalg.norm(P @ C - C) <= 1e-12 * np.linalg.norm(C), (key, plan.label)
            U = C[:, plan.pairs:]
            assert np.linalg.norm(P_u @ U - U) <= 1e-12 * np.linalg.norm(U), (key, plan.label)


@pytest.mark.parametrize("n", range(2, 13))
def test_basis_cond_closed_form(n):
    for key, sys in grid_systems(n):
        basis = rs.assemble_global_basis(sys)
        assert basis.m_orthogonal == "full", key
        assert signature_residual(basis) <= 1e-13, key
        ref = np.linalg.cond(basis.matrix)
        assert abs(basis.cond - ref) <= 1e-12 * ref, key


def shielded_ladder():
    """The D_6 shielded vortex at center vorticity c = -6.1, -6.001 and
    -6.00001: its sigma lead total is nearly M-null, and its condition
    number grows like 34 / |c + 6| (3.4e6 at the last rung)."""
    return [rs.build(6, [rs.center(c), rs.regular(1.0, 1.0)]) for c in (-6.1, -6.001, -6.00001)]


def test_basis_cond_matches_dense_svd_on_mixed_signs():
    """The per-block condition number against the dense SVD, partial and
    ill-conditioned bases included.  Both read the smallest singular value
    to an absolute eps * sigma_max, so they may differ by about eps * cond
    relative: measured 1.1e-15 on the mixed-sign systems, 8.5e-15, 1.8e-13
    and 4.9e-10 on the ladder (at most 0.65 eps * cond)."""
    for sys in mixed_sign_systems() + shielded_ladder():
        basis = rs.assemble_global_basis(sys)
        ref = np.linalg.cond(basis.matrix)
        assert abs(basis.cond - ref) <= 1e-15 * basis.cond * ref, (sys.masses[0], basis.cond)


def test_basis_cond_never_takes_the_dense_svd(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("assemble_global_basis took the dense condition number")

    monkeypatch.setattr(np.linalg, "cond", forbidden)
    for n in range(2, 13):
        for key, sys in grid_systems(n):
            assert rs.assemble_global_basis(sys).cond >= 1.0, key
    for sys in mixed_sign_systems() + shielded_ladder():
        assert rs.assemble_global_basis(sys).cond >= 1.0


# --- the matrix-free group action against dense sigma matrices --------------

@pytest.mark.parametrize("n", list(range(2, 13)) + ["samples"])
def test_group_action_matches_the_nearest_point_matcher(n):
    """The point permutations of r and s read off the ring order equal
    those the matcher finds from the positions alone: on the type
    grid, the sample and mixed-sign systems, and regular rings at phases
    9e-13 off 0 and pi/n, either side."""
    if n == "samples":
        systems = sample_systems() + mixed_sign_systems()
    else:
        systems = [sys for _, sys in grid_systems(n)]
        systems += [rs.build(n, [rs.center(1.0), rs.regular(1.0, 1.0, phase=d0),
                                 rs.regular(1.7, 0.5, phase=np.pi / n + d1)])
                    for d0 in (9e-13, -9e-13) for d1 in (9e-13, -9e-13)]
    for sys in systems:
        assert np.array_equal(sys.group_action().perm, matched_perm(sys)[[1, sys.n]]), sys.rings


@pytest.mark.parametrize("n", range(2, 9))
def test_gather_action_matches_sigma_matrix(n):
    for key, sys in grid_systems(n):
        act = sys.group_action()
        X = RNG.standard_normal((2 * sys.npoints, 3))
        for gen, g in (("r", rotation(n)), ("s", reflection(n))):
            S = sigma_matrix(sys, g)
            assert np.abs(act.left(gen, X) - S @ X).max() <= 1e-14, (key, g)


def test_group_action_takes_only_the_generators():
    act = sample_systems()[3].group_action()
    X = RNG.standard_normal((2 * act.perm.shape[1], 2))
    for gen in ("", "rs", "sr", "e", "R", rotation(4), reflection(4)):
        with pytest.raises(ValueError, match="unknown generator"):
            act.left(gen, X)


# --- the stacked construction against the per-block reference --------------

#: the D_6 shielded vortex at center vorticity c near -6: full bases down to
#: -6.00001, partial ones (a lead total of zero M-norm) at the last two
SHIELDED_LADDER = (-6.1, -6.001, -6.00001, -6.000000000001, -6.0)


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def test_stacked_basis_and_certificate_equal_the_per_block_reference():
    """Built, orthogonalized and certified one stack per block size, the
    basis and its certificate have the bits of the per-block construction
    in tests/reference.py, signed zeros included: C, the block plan, cond,
    the M-orthogonality flag, and the certificate's values in key order."""
    systems = [grid_system(*key) for key in type_grid()] + mixed_sign_systems()
    systems += [rs.build(6, [rs.center(c), rs.regular(1.0, 1.0)]) for c in SHIELDED_LADDER]
    for sys in systems:
        key = (sys.n, sys.type_abc, float(sys.masses[0]))
        basis, ref = rs.assemble_global_basis(sys), reference.per_block_basis(sys)
        assert same_bits(basis.matrix, ref.matrix), key
        assert basis.blocks == ref.blocks, key
        assert (basis.cond, basis.m_orthogonal) == (ref.cond, ref.m_orthogonal), key
        cert, ref_cert = symmetry_certificate(basis), reference.per_block_certificate(basis)
        assert list(cert) == list(ref_cert), key
        assert same_bits(list(cert.values()), list(ref_cert.values())), key


def test_stacked_basis_fails_as_the_per_block_reference():
    """One rung further down the ladder the basis is ill-conditioned, and a
    column in the span of its predecessors is dependent: the stacked
    construction refuses both with the reference's message, for a stack of
    three blocks and for a single block (which runs on 1-D rows)."""
    sys = rs.build(6, [rs.center(-6.0000001), rs.regular(1.0, 1.0)])
    with pytest.raises(ValueError) as got:
        rs.assemble_global_basis(sys)
    with pytest.raises(ValueError) as ref:
        reference.per_block_basis(sys)
    assert str(got.value) == str(ref.value) == "basis ill-conditioned: cond = 3.43e+08"
    U = RNG.standard_normal((3, 3, 2 * sys.npoints))
    U[:, 2] = U[:, 0] - 0.5 * U[:, 1]
    with pytest.raises(ValueError) as ref:
        reference.m_gram_schmidt(sys, list(U[0]))
    assert str(ref.value) == "decomposition mismatch: dependent column in basis block"
    for k in (3, 1):
        with pytest.raises(ValueError) as got:
            symbasis._m_gram_schmidt(sys.mass_diag, U[:k].copy())
        assert str(got.value) == str(ref.value)


def test_stacked_calls_follow_the_block_sizes_not_n(monkeypatch):
    """A center and two rings have three block sizes at every n >= 6: the
    basis takes one Gram-Schmidt per size and the certificate one
    projection per size and generator, at D_12 and at D_96 alike."""
    counts = {}

    def counted(name):
        fn = getattr(symbasis, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(symbasis, name, wrapper)

    counted("_m_gram_schmidt")
    counted("_project")
    seen = []
    for n in (12, 96):
        sys = rs.build(n, [rs.center(4.0), rs.regular(1.0, 0.5),
                           rs.regular(1.8, 1.0, phase=np.pi / n)])
        counts.clear()
        basis = rs.assemble_global_basis(sys)
        gram_schmidt = counts.pop("_m_gram_schmidt")
        symmetry_certificate(basis)
        seen.append((gram_schmidt, counts["_project"], len({blk.size for blk in basis.blocks})))
    assert seen == [(3, 6, 3), (3, 6, 3)]


def test_standard_j_is_one_read_only_array_per_size():
    assert standard_j(4) is standard_j(4)
    assert np.array_equal(standard_j(2), [[0, 0, 1, 0], [0, 0, 0, 1],
                                          [-1, 0, 0, 0], [0, -1, 0, 0]])
    with pytest.raises(ValueError):
        standard_j(4)[0, 2] = 2.0


def traced_peak(fn, *args):
    """(fn(*args), the peak of its traced allocations in MiB)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1] / 2.0 ** 20
    finally:
        tracemalloc.stop()


#: traced peaks at D_384 with a center and two rings, one at phase pi/n, of
#: the per-block construction (63.6 MiB: every column held twice) and of
#: the certificate (90.0 MiB), plus 5 %; the stacked basis reads 45.0 MiB
BASIS_PEAK_MIB = 63.6 * 1.05
CERTIFICATE_PEAK_MIB = 90.0 * 1.05
#: the same system's `stability_operator` (23.9 MiB for an A of 18.0 MiB;
#: 81.3 MiB when the Hessian was built from (N, N, 2, 2) pair blocks), plus 5 %
OPERATOR_PEAK_MIB = 23.9 * 1.05


def test_basis_and_certificate_memory_at_scale():
    """The stacks never hold a second copy of a (k, m, 2N) stack, and the
    operator holds A and a few chunks of pair planes: all stay under their
    bounds at D_384."""
    n = 384
    sys = rs.build(n, [rs.center(4.0), rs.regular(1.0, 0.5), rs.regular(1.8, 1.0, phase=np.pi / n)])
    _, peak = traced_peak(rs.stability_operator, sys, rs.newtonian(), 1.0)
    assert peak <= OPERATOR_PEAK_MIB, peak
    basis, peak = traced_peak(rs.assemble_global_basis, sys)
    assert peak <= BASIS_PEAK_MIB, peak
    _, peak = traced_peak(symmetry_certificate, basis)
    assert peak <= CERTIFICATE_PEAK_MIB, peak


def test_reference_imports_no_private_library_name():
    """The dense references stay independent of production: tests/reference.py
    imports no _-prefixed name from ringstab."""
    tree = ast.parse(Path(reference.__file__).read_text(encoding="utf-8"))
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ringstab"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def equivariance_defects(sys, sigmas, rng):
    """Three defects of A, each with the element classes it breaks: a
    random one (all), a rotation-breaking one that still commutes with
    sigma(s) (all but the identity and s), and a reflection-breaking one
    that is still averaged over C_n (the reflections)."""
    n = sys.n
    R = rng.standard_normal((2 * sys.npoints,) * 2)
    s = sigmas[n]
    everything = np.arange(1, 2 * n)
    return {"random": (R, everything),
            "rotation": (R + s @ R @ s, everything[everything != n]),
            "reflection": (sum(S.T @ R @ S for S in sigmas[:n]), everything[everything >= n])}


@pytest.mark.parametrize("n", list(range(2, 13)) + ["mixed signs"])
def test_equivariance_residuals_match_dense_sigma_matrices(n):
    """Every element's residual from the one FFT pass against
    ||A S_g - S_g A||_F / ||A||_F with the dense S_g: on the operators of
    the type grid (or the mixed-sign systems) and on each of them moved off
    equivariance by each defect at 1e-3 .. 1e-12 of ||A||_F."""
    systems = mixed_sign_systems() if n == "mixed signs" else [s for _, s in grid_systems(n)]
    for i, sys in enumerate(systems):
        act = sys.group_action()
        sigmas = sigma_matrices(sys)
        A = rs.stability_operator(sys, (rs.newtonian(), rs.vortex())[i % 2], 1.0).matrix
        fast = _equivariance_residuals(A, act) / np.linalg.norm(A)
        assert np.abs(fast - equivariance_residuals(A, sigmas)).max() <= 1e-13, i
        for kind, (D, broken) in equivariance_defects(sys, sigmas, RNG).items():
            for eps in (1e-3, 1e-6, 1e-9, 1e-12):
                B = A + eps * np.linalg.norm(A) / np.linalg.norm(D) * D
                ref = equivariance_residuals(B, sigmas)
                fast = _equivariance_residuals(B, act) / np.linalg.norm(B)
                assert np.all(np.abs(fast - ref) <= 1e-9 * ref + 1e-15), (i, kind, eps)
                # each defect moves exactly the elements it should
                kept = np.setdiff1d(np.arange(2 * sys.n), broken)
                assert ref[broken].min() > 0.1 * eps and ref[kept].max() < 1e-13, (i, kind, eps)


GUARD_CONFIG = """
n = {n}
kind = homogeneous
gamma = -1.5
omega = 1.0

[ring]
kind = center
mass = 2.0

[ring]
kind = regular
radius = 1.0
mass = 1.0

[ring]
kind = semiregular
radius = 1.7
half_gap = 0.2
mass = 0.6
"""


@pytest.mark.parametrize("n", [2, 6])
def test_analyze_never_forms_dense_projectors(n, tmp_path, monkeypatch, capsys):
    # analyze reaches neither the symmetry certificate nor the group action
    def forbidden(*args, **kwargs):
        raise AssertionError("analyze reached the symmetry certificate or the group action")

    for mod in (rs, cli, symbasis, rs.stability, rs.report):
        for name, obj in list(vars(mod).items()):
            if obj is symbasis.symmetry_certificate:
                monkeypatch.setattr(mod, name, forbidden)
    monkeypatch.setattr(RingSystem, "group_action", forbidden)
    cfg = tmp_path / "job.cfg"
    cfg.write_text(GUARD_CONFIG.format(n=n))
    assert cli.main(["analyze", "--config", str(cfg)]) == 0, capsys.readouterr().err


def test_large_n_factorization():
    sys = rs.build(96, [rs.center(2.0), rs.regular(1.0, 1.0),
                        rs.semiregular(1.7, np.pi / 288, 0.6)])
    basis = rs.assemble_global_basis(sys)
    assert basis.m_orthogonal == "full"
    for pot in (rs.newtonian(), rs.vortex()):
        fac = factorize(rs.stability_operator(sys, pot, 1.0), basis)
        assert fac.max_off_residual <= 1e-9, pot.kind
        assert fac.oracle.max_rel_error <= 1e-8, pot.kind


@pytest.mark.parametrize("n", [2, 6])
def test_verify_never_forms_sigma_matrices(n, tmp_path, monkeypatch, capsys):
    # the library has no dense sigma matrix to form (tests/reference.py
    # holds the one the tests compare against); verify runs on the
    # matrix-free group action and passes
    cfg = tmp_path / "job.cfg"
    cfg.write_text(GUARD_CONFIG.format(n=n))
    code = cli.main(["verify", "--config", str(cfg)])
    out = capsys.readouterr()
    assert code == 0, out.out + out.err
    assert "verdict: pass" in out.out


SOLVE_CONFIG = """
n = {n}
kind = {kind}
omega = solve
free_radii = 2

[ring]
kind = center
mass = 2.0

[ring]
kind = regular
radius = 1.0
mass = 1.0

[ring]
kind = regular
radius = {r2}
mass = 0.5
phase = pi/n
"""


@pytest.mark.parametrize("n,kind,r2", [(6, "homogeneous", 1.8), (12, "vortex", 1.9)])
def test_analyze_builds_twice_and_takes_one_gradient(n, kind, r2, tmp_path, monkeypatch,
                                                     capsys):
    # one build validates the config, one builds the solved system; the one
    # gradient goes into the operator, and the reversed-omega residual
    # reuses it
    calls = {"build": 0, "gradient": 0}
    originals = {"build": rs.geometry.build, "gradient": rs.dynamics.gradient}

    def counted(name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)
        return wrapper

    for mod in (rs, cli, rs.config, rs.geometry, rs.dynamics, rs.stability, symbasis):
        for name, obj in list(vars(mod).items()):
            for key, fn in originals.items():
                if obj is fn:
                    monkeypatch.setattr(mod, name, counted(key))
    cfg = tmp_path / "job.cfg"
    cfg.write_text(SOLVE_CONFIG.format(n=n, kind=kind, r2=r2))
    code = cli.main(["analyze", "--config", str(cfg), "--format", "machine"])
    out = capsys.readouterr()
    assert code == 0, out.err
    assert '"residual_reversed_omega"' in out.out
    assert calls == {"build": 2, "gradient": 1}


@pytest.mark.parametrize("n", [2, 6])
def test_verify_builds_each_oracle_once(n, tmp_path, monkeypatch, capsys):
    # the Hessian once; the group action once per check that reads it, the
    # symmetry certificate and the equivariance of A (its cost is guarded by
    # test_group_action_memory_grows_with_points_not_group_order)
    calls = {"group_action": 0, "hessian": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(RingSystem, "group_action",
                        counted("group_action", RingSystem.group_action))
    monkeypatch.setattr(rs.dynamics, "hessian", counted("hessian", rs.dynamics.hessian))
    cfg = tmp_path / "job.cfg"
    cfg.write_text(GUARD_CONFIG.format(n=n))
    code = cli.main(["verify", "--config", str(cfg)])
    out = capsys.readouterr()
    assert code == 0, out.out + out.err
    assert calls == {"group_action": 2, "hessian": 1}
