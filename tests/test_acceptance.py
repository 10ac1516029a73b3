"""Acceptance gates: one test per advertised guarantee, at its stated
tolerance.  Each prints a single criterion line (shown with -s); the pytest
verdict per test is the pass/fail record."""

from contextlib import contextmanager

import numpy as np
from numpy.testing import assert_allclose

import ringstab as rs
from ringstab.stability import classical_checks, factorize
from ringstab.symbasis import (multiplicities, symmetry_certificate,
                               translation_field)
from reference import expected_degree_profile, j_matrix, m_inner, transform

NEWT = rs.newtonian()
VORT = rs.vortex()


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print("criterion %02d %-34s FAIL" % (num, name))
        raise
    print("criterion %02d %-34s PASS" % (num, name))


def type_grid():
    for n in range(2, 13):
        for a in (0, 1):
            for b in (0, 1, 2):
                for c in (0, 1, 2):
                    if b + c > 0:
                        yield n, a, b, c


def grid_system(n, a, b, c):
    rings = []
    if a:
        rings.append(rs.center(1.3))
    for i in range(b):
        rings.append(rs.regular(1.0 + 1.1 * i, 1.0 + 0.5 * i,
                                phase=(np.pi / n if i % 2 else 0.0)))
    for i in range(c):
        rings.append(rs.semiregular(3.3 + 1.3 * i, np.pi / (n * (3 + i)), 0.8 + 0.3 * i))
    return rs.build(n, rings)


def grid_certificates():
    """((n, a, b, c), basis, symmetry certificate) on the type grid."""
    for n, a, b, c in type_grid():
        sys = grid_system(n, a, b, c)
        basis = rs.assemble_global_basis(sys)
        yield (n, a, b, c), basis, symmetry_certificate(basis)


#: the certificate's invariance keys end with this; the rest are relations
INVARIANCE = " invariance"


def test_criterion_01_multiplicity_law():
    with criterion(1, "multiplicity law on the type grid"):
        for (n, a, b, c), basis, cert in grid_certificates():
            mult = multiplicities(n, a, b, c)
            w = b + 2 * c
            assert mult["tau"] == mult["alpha"] == w
            if n % 2 == 0:
                assert mult["phi"] == mult["psi"] == (a + w if n == 2 else w)
            if n > 2:
                assert mult["rho_1"] == a + 2 * w
                for k in range(2, (n - 1) // 2 + 1):
                    assert mult["rho_%d" % k] == 2 * w
            # each certified block is the law's count of its irrep's copies
            # (twice it: a block pairs each u column with J u), and they
            # fill the space
            count = {"tau_alpha": "tau", "phi_psi": "phi", "sigma": "rho_1"}
            sizes = {blk.label: blk.size for blk in basis.blocks}
            assert sizes == {label: 2 * mult[count.get(label, label)] for label in sizes}, \
                (n, a, b, c)
            assert sum(sizes.values()) == basis.matrix.shape[0]
            assert {key.rsplit(" ", 2)[0] for key in cert if key.endswith(INVARIANCE)} \
                == set(sizes), (n, a, b, c)


def test_criterion_02_basis_invariance():
    with criterion(2, "blocks invariant under r, s <= 1e-11"):
        for key, _, cert in grid_certificates():
            inv = {k: v for k, v in cert.items() if k.endswith(INVARIANCE)}
            assert max(inv.values()) <= 1e-11, (key, max(inv, key=inv.get))


def test_criterion_03_j_relations():
    with criterion(3, "D_n and J relations <= 1e-11"):
        for key, _, cert in grid_certificates():
            rel = {k: v for k, v in cert.items() if not k.endswith(INVARIANCE)}
            assert max(rel.values()) <= 1e-11, (key, max(rel, key=rel.get))


def test_criterion_04_equivariance_and_hessian():
    with criterion(4, "equivariance 1e-9, hessian vs complex step 1e-12"):
        rng = np.random.default_rng(5150)
        picks = [(3, 0, 2, 0), (4, 1, 1, 1), (5, 0, 1, 2), (6, 1, 2, 0),
                 (7, 0, 0, 1), (8, 1, 2, 2)]
        for n, a, b, c in picks:
            base = grid_system(n, a, b, c)
            masses = rng.uniform(0.4, 2.5, size=len(base.rings))
            rings = [rs.geometry.RingSpec(r.kind, m, radius=r.radius, phase=r.phase,
                                          half_gap=r.half_gap)
                     for r, m in zip(base.rings, masses)]
            sys = rs.build(n, rings)
            for pot in (NEWT, VORT):
                op = rs.stability_operator(sys, pot, 1.0)
                assert rs.equivariance_residual(op) <= 1e-9, (n, a, b, c)
        for n, a, b, c in picks[:2]:
            sys = grid_system(n, a, b, c)
            for pot in (NEWT, VORT):
                assert rs.hessian_fd_residual(rs.stability_operator(sys, pot, 1.0)) <= 1e-12


def test_criterion_05_block_structure():
    with criterion(5, "off-block 1e-9 and shape patterns 1e-8"):
        for n, a, b, c in type_grid():
            sys = grid_system(n, a, b, c)
            basis = rs.assemble_global_basis(sys)
            for pot in (NEWT, VORT):
                op = rs.stability_operator(sys, pot, 1.0)
                tr = transform(op, basis)
                assert tr.max_off <= 1e-9, ((n, a, b, c), pot.kind, tr.max_off)

        def quarters(sys, pot, label):
            op = rs.stability_operator(sys, pot, 1.1)
            basis = rs.assemble_global_basis(sys)
            tr = transform(op, basis)
            plan = next(p for p in basis.blocks if p.label == label)
            m = plan.pairs
            sl = slice(plan.start, plan.start + plan.size)
            At = tr.a_tilde[sl, sl]
            return At[:m, :m], At[m:, m:]

        # 4x4: u side equals the J side with both indices reversed
        for n, k in ((5, 2), (7, 3)):
            AJ, Au = quarters(rs.build(n, [rs.regular(1.0, 1.0)]), NEWT, "rho_%d" % k)
            P = np.eye(2)[[1, 0]]
            assert np.linalg.norm(Au - P @ AJ @ P) <= 1e-8 * np.linalg.norm(Au)
        # 8x8: entries shared under the pairwise swap (1 2)(3 4)
        for pot in (NEWT, VORT):
            AJ, Au = quarters(rs.build(5, [rs.semiregular(1.0, np.pi / 12, 1.0)]),
                              pot, "rho_2")
            P = np.eye(4)[[1, 0, 3, 2]]
            assert np.linalg.norm(Au - P @ AJ @ P) <= 1e-8 * np.linalg.norm(Au)


def test_criterion_06_factor_oracle_and_degrees():
    with criterion(6, "factor product vs oracle 1e-8, degrees"):
        for n, a, b, c in type_grid():
            sys = grid_system(n, a, b, c)
            basis = rs.assemble_global_basis(sys)
            for pot in (NEWT, VORT):
                op = rs.stability_operator(sys, pot, 1.0)
                fac = factorize(op, basis)
                assert fac.oracle.max_rel_error <= 1e-8, ((n, a, b, c), pot.kind)
                total = sum(fac.lambda_degrees)
                expect = (4 if pot.kind == "homogeneous" else 2) * sys.npoints
                assert total == expect
                assert fac.degree_profile == expected_degree_profile(n, a, b, c)
        # named profile examples
        sys = rs.build(5, [rs.regular(1.0, 1.0)])
        fac = factorize(rs.stability_operator(sys, VORT, 2.0),
                        rs.assemble_global_basis(sys))
        assert fac.degree_profile == [2, 4, 4]
        sys = rs.build(6, [rs.regular(1.0, 1.0)])
        fac = factorize(rs.stability_operator(sys, VORT, 1.0),
                        rs.assemble_global_basis(sys))
        assert fac.degree_profile == [2, 2, 4, 4]


def gon_solution(n, pot):
    sol = rs.solve_releq(rs.build(n, [rs.regular(1.0, 1.0)]), pot)
    assert sol.converged
    assert np.max(np.abs(rs.releq_residual(sol.system, pot, sol.omega))) <= 1e-10
    return sol


def test_criterion_07_releq_pipeline():
    with criterion(7, "n-gon pipeline and factor splits"):
        for n in range(3, 9):
            for pot in (NEWT, VORT):
                sol = gon_solution(n, pot)
                op = rs.stability_operator(sol.system, pot, sol.omega)
                assert rs.translation_kernel_residual(op) <= 1e-9
                res = classical_checks(op)
                # rotation/scaling and rotated-field identities, with the
                # signs that follow from the implemented force convention
                assert max(res.values()) <= 1e-8, (n, pot.kind, res)
                fac = factorize(op, rs.assemble_global_basis(sol.system))
                by = {b.label: b.factor for b in fac.blocks}
                w2 = sol.omega ** 2
                if pot.kind == "homogeneous":
                    assert_allclose(by["tau_alpha"].coefficients,
                                    [0.0, 0.0, w2, 0.0, 1.0], atol=1e-8 * max(1.0, w2))
                    lead = by["sigma_lead" if n > 2 else "phi_psi_lead"]
                    assert_allclose(lead.coefficients,
                                    [w2 * w2, 0.0, 2.0 * w2, 0.0, 1.0],
                                    atol=1e-8 * max(1.0, w2 * w2))
                else:
                    assert_allclose(by["tau_alpha"].coefficients, [0.0, 0.0, 1.0],
                                    atol=1e-8)
                    lead = by["sigma_lead" if n > 2 else "phi_psi_lead"]
                    assert_allclose(lead.coefficients, [w2, 0.0, 1.0],
                                    atol=1e-8 * max(1.0, w2))


def test_criterion_08_vortex_j_property():
    with criterion(8, "vortex Jv eigenvector residual 1e-7"):
        for n in range(3, 9):
            sol = gon_solution(n, VORT)
            A = rs.stability_operator(sol.system, VORT, sol.omega).matrix
            _, vecs = np.linalg.eigh(0.5 * (A + A.T))
            J = j_matrix(sol.system.npoints)
            scale = np.linalg.norm(A)
            for i in range(vecs.shape[1]):
                w = J @ vecs[:, i]
                mu = w @ A @ w / (w @ w)
                assert np.linalg.norm(A @ w - mu * w) <= 1e-7 * scale, (n, i)


def test_criterion_09_d2_full_factorization():
    with criterion(9, "D2 systems factor into 2x2 blocks"):
        geometries = {
            "rhombus": (rs.build(2, [rs.regular(1.0, 1.0),
                                     rs.regular(1.4, 1.5, phase=np.pi / 2)]), (1,)),
            "rectangle": (rs.build(2, [rs.semiregular(1.0, np.pi / 4, 1.0)]), ()),
            "collinear": (rs.build(2, [rs.regular(1.0, 1.0),
                                       rs.regular(2.8, 1.0)]), (1,)),
        }
        for name, (sys, free) in geometries.items():
            for pot in (NEWT, VORT):
                sol = rs.solve_releq(sys, pot, free_radii=free)
                assert sol.converged, (name, pot.kind)
                op = rs.stability_operator(sol.system, pot, sol.omega)
                fac = factorize(op, rs.assemble_global_basis(sol.system))
                assert all(b.size == 2 for b in fac.blocks), (name, pot.kind)
                for f in [b.factor for b in fac.blocks]:
                    if pot.kind == "vortex":
                        assert f.degree == 2
                    else:
                        c = f.coefficients
                        assert f.degree == 4, (name, pot.kind)
                        assert np.max(np.abs(c[1::2])) <= 1e-8 * np.max(np.abs(c)), (name, f.label)
                assert fac.oracle.max_rel_error <= 1e-8, (name, pot.kind)


def test_criterion_10_refinement_constants():
    with criterion(10, "combination constants and sigma Gram"):
        sys = rs.build(4, [rs.center(4.0), rs.regular(1.0, 0.5), rs.regular(1.8, 1.0)])
        sol = rs.solve_releq(sys, NEWT, free_radii=(2,))
        assert sol.converged
        sysm = sol.system
        t0 = translation_field(sysm, orbit=0)
        consts = [-m_inner(sysm, t0, t0) /
                  m_inner(sysm, translation_field(sysm, orbit=i),
                          translation_field(sysm, orbit=i)) for i in (1, 2)]
        assert consts == [-2.0, -1.0]
        basis = rs.assemble_global_basis(sysm)
        plan = next(p for p in basis.blocks if p.label == "sigma")
        assert plan.size == 10
        C = basis.matrix[:, plan.start:plan.start + plan.size]
        G = C.T @ (sysm.mass_diag[:, None] * C)
        off = G - np.diag(np.diag(G))
        assert np.max(np.abs(off)) <= 1e-10 * np.max(np.abs(np.diag(G)))
