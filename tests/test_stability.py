from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ringstab as rs
from ringstab.stability import (_block_factors, _factor_log_product, _slogdets,
                                classical_checks, dense_oracle, factorize)
from ringstab.symbasis import standard_j
from reference import (_off_residual, _pencils, expected_degree_profile, j_matrix,
                       pencil, transform)
from test_acceptance import grid_system, type_grid

NEWT = rs.newtonian()
VORT = rs.vortex()


def solved(n, rings, pot, free=()):
    sol = rs.solve_releq(rs.build(n, rings), pot, free_radii=free)
    assert sol.converged
    op = rs.stability_operator(sol.system, pot, sol.omega)
    basis = rs.assemble_global_basis(sol.system)
    return op, basis


def operator_at(n, rings, pot, omega):
    # block structure is a consequence of equivariance alone, so these
    # helpers do not require an equilibrium
    sys = rs.build(n, rings)
    return rs.stability_operator(sys, pot, omega), rs.assemble_global_basis(sys)


def block_factor(label, Ab, omega, kind):
    return _block_factors([label], Ab[None], omega, kind)[0]


# --- hand-checked 2x2 determinants ---------------------------------------

def test_block_factor_translation_pair():
    # A = 0 with standard J gives ((lambda^2 + omega^2))^2
    w = 1.3
    f = block_factor("t", np.zeros((2, 2)), w, "homogeneous")
    assert_allclose(f.coefficients, [w ** 4, 0.0, 2.0 * w ** 2, 0.0, 1.0], atol=1e-10)
    assert_allclose(np.prod(0.7 - f.spectrum).real, (0.49 + w * w) ** 2, rtol=1e-12)


def test_block_factor_vortex_shifted_identity():
    a, w = 0.8, 0.5
    f = block_factor("v", a * np.eye(2), w, "vortex")
    assert f.degree == 2
    assert_allclose(f.coefficients, [(a + w) ** 2, 0.0, 1.0], atol=1e-12)


def test_block_factor_full_degree_fallback():
    # a nilpotent block breaks evenness; det = l^4 + 2w^2 l^2 + 2w l + w^4
    w = 1.1
    Ab = np.array([[0.0, 1.0], [0.0, 0.0]])
    f = block_factor("odd", Ab, w, "homogeneous")
    assert_allclose(f.coefficients, [w ** 4, 2.0 * w, 2.0 * w ** 2, 0.0, 1.0],
                    atol=1e-9)


def test_pencil_matches_definition():
    op, _ = solved(5, [rs.regular(1.0, 1.0)], VORT)
    lam = 0.37
    J = j_matrix(op.system.npoints)
    assert_allclose(pencil(op, lam), op.matrix + op.omega * np.eye(10) + lam * J,
                    atol=1e-13)


# --- transformed operator structure ---------------------------------------

@pytest.mark.parametrize("pot", [NEWT, VORT])
def test_off_block_residual_and_j_form(pot):
    op, basis = operator_at(6, [rs.center(1.5), rs.regular(1.0, 1.0),
                                rs.semiregular(1.9, 0.15, 0.5)], pot, 0.8)
    tr = transform(op, basis)
    assert tr.max_off < 1e-9
    assert set(tr.off_residuals) == {p.label for p in basis.blocks}
    for plan in basis.blocks:
        m = plan.pairs
        sl = slice(plan.start, plan.start + plan.size)
        Jb = tr.j_tilde[sl, sl]
        expect = np.block([[np.zeros((m, m)), np.eye(m)],
                           [-np.eye(m), np.zeros((m, m))]])
        assert_allclose(Jb, expect, atol=1e-10)


@pytest.mark.parametrize("n,rings", [
    (6, [rs.center(1.5), rs.regular(1.0, 1.0), rs.semiregular(1.9, 0.15, 0.5)]),
    (3, [rs.regular(1.0, 1.0), rs.regular(2.0, -0.5)]),
])
def test_transform_applies_j_without_forming_it(n, rings):
    op, basis = operator_at(n, rings, VORT, 0.8)
    C = basis.matrix
    J = j_matrix(op.system.npoints)
    assert np.array_equal(rs.apply_j(C.T).T, J @ C)
    assert np.array_equal(transform(op, basis).j_tilde, np.linalg.solve(C, J @ C))


def block_quarters(op, basis, label):
    tr = transform(op, basis)
    for plan in basis.blocks:
        if plan.label == label:
            m = plan.pairs
            sl = slice(plan.start, plan.start + plan.size)
            At = tr.a_tilde[sl, sl]
            return At[:m, :m], At[m:, m:]
    raise AssertionError(label)


def test_shape_pattern_4x4():
    # single regular ring: the u side of each V^(k) block repeats the J side
    # with both indices reversed
    op, basis = solved(5, [rs.regular(1.0, 1.0)], VORT)
    AJ, Au = block_quarters(op, basis, "rho_2")
    P = np.eye(2)[[1, 0]]
    assert np.linalg.norm(Au - P @ AJ @ P) / np.linalg.norm(Au) < 1e-8


def test_shape_pattern_8x8():
    # single semiregular ring: entries are shared under the pairwise swap
    # (1 2)(3 4) of the four basis vectors on each side
    op, basis = operator_at(5, [rs.semiregular(1.0, np.pi / 7, 1.0)], NEWT, 1.2)
    AJ, Au = block_quarters(op, basis, "rho_2")
    P = np.eye(4)[[1, 0, 3, 2]]
    assert np.linalg.norm(Au - P @ AJ @ P) / np.linalg.norm(Au) < 1e-8


@pytest.mark.parametrize("pot", [NEWT, VORT])
def test_shape_pattern_sigma_refined(pot):
    # the standard component of a lone semiregular ring shares entries under
    # the swap of its last two refined vectors, with no sign change
    op, basis = operator_at(4, [rs.semiregular(1.0, np.pi / 6, 1.0)], pot, 0.9)
    AJ, Au = block_quarters(op, basis, "sigma")
    Q = np.eye(4)[[0, 1, 3, 2]]
    assert np.linalg.norm(Au - Q @ AJ @ Q) / np.linalg.norm(Au) < 1e-8


# --- projected blocks against the dense transform -------------------------

def solved_split_systems():
    """Relative equilibria whose lead pairs split off: the vortex pentagon,
    Maxwell's 1 + 7-gon, two mixed-sign vortex systems (C^T M C is a
    signature matrix, not I) and a D_48 system of the large-n benchmark
    shape."""
    return [
        solved(5, [rs.regular(1.0, 1.0)], VORT),
        solved(7, [rs.center(200.0), rs.regular(1.0, 1.0)], NEWT),
        solved(2, [rs.center(-0.4), rs.regular(1.0, 1.0)], VORT),
        solved(5, [rs.regular(1.0, 1.0), rs.regular(2.0, -0.3)], VORT, free=(1,)),
        solved(48, [rs.center(4.0), rs.regular(1.0, 1.0),
                    rs.regular(1.8, 1.0, phase=np.pi / 48)], NEWT, free=(2,)),
    ]


def grid_operators():
    for n, a, b, c in type_grid():
        sys = grid_system(n, a, b, c)
        basis = rs.assemble_global_basis(sys)
        for pot in (NEWT, VORT):
            yield rs.stability_operator(sys, pot, 1.0), basis


def assert_matches_transform(op, basis, fac):
    tr = transform(op, basis)
    anorm, jnorm = np.linalg.norm(tr.a_tilde), np.linalg.norm(tr.j_tilde)
    orthonormal = basis.m_orthogonal == "full" and np.all(op.system.masses > 0)
    key = (op.system.n, op.system.type_abc, op.potential.kind)
    for blk in fac.blocks:
        idx = np.ix_(blk.cols, blk.cols)
        # relative to the whole operator: some blocks (D_2 phi/psi) are ~1e-49
        assert np.linalg.norm(blk.a_block - tr.a_tilde[idx]) <= 1e-12 * anorm, (key, blk.label)
        assert np.linalg.norm(blk.j_block - tr.j_tilde[idx]) <= 1e-12 * jnorm, (key, blk.label)
        if orthonormal:
            cols = np.array(blk.cols)
            dense = max(_off_residual(tr.a_tilde, cols, anorm),
                        _off_residual(tr.j_tilde, cols, jnorm))
            assert abs(blk.off_residual - dense) <= 1e-14, (key, blk.label)
    if orthonormal:
        assert abs(fac.max_off_residual - tr.max_off) <= 1e-14, key


def test_projected_blocks_match_transform_on_grid():
    for op, basis in grid_operators():
        assert_matches_transform(op, basis, factorize(op, basis))


def test_projected_split_blocks_match_transform():
    for op, basis in solved_split_systems():
        fac = factorize(op, basis)
        assert any(b.label.endswith(("_lead", "_rest")) for b in fac.blocks), op.system.n
        assert_matches_transform(op, basis, fac)


def test_j_pairing_is_exact_and_factors_monic():
    # the basis layout makes J~_b the standard form exactly, which is all
    # `factorize` assumes of J: over the grid, a mixed-sign D_5 vortex system
    # and the D_2 vortex system with a -0.4 center
    split = solved_split_systems()
    for op, basis in list(grid_operators()) + [split[3], split[2]]:
        C = basis.matrix
        JC = rs.apply_j(C.T).T
        for plan in basis.blocks:
            cb = C[:, plan.cols]
            assert np.array_equal(JC[:, plan.cols], cb @ standard_j(plan.pairs)), plan.label
        fac = factorize(op, basis)
        for blk in fac.blocks:
            assert np.array_equal(blk.j_block, standard_j(blk.size // 2))
            assert blk.factor.coefficients[-1] == 1.0, blk.label


def leaking(op, eps, seed):
    """op with A moved off equivariance by eps ||A||_F, so that every block
    leaks by about eps and the residuals measure something."""
    R = np.random.default_rng(seed).standard_normal(op.matrix.shape)
    return replace(op, matrix=op.matrix + eps * np.linalg.norm(op.matrix) / np.linalg.norm(R) * R)


def test_off_residuals_match_transform_on_leaking_operators():
    picks = list(grid_operators())[3::23]
    for i, (op, basis) in enumerate(picks):
        op = leaking(op, 1e-6, i)
        fac = factorize(op, basis)
        assert 1e-8 < fac.max_off_residual < 1e-5
        assert_matches_transform(op, basis, fac)
    # small enough leakage that the lead pairs still split
    for i, (op, basis) in enumerate(solved_split_systems()):
        op = leaking(op, 1e-11, i)
        fac = factorize(op, basis)
        assert any(b.label.endswith(("_lead", "_rest")) for b in fac.blocks)
        assert min(b.off_residual for b in fac.blocks) > 1e-14
        assert_matches_transform(op, basis, fac)
    # leakage past the default gate: every lead pair is refused with a note,
    # and the same operator splits once the gate is lifted
    for i, (op, basis) in enumerate(solved_split_systems()):
        op = leaking(op, 1e-8, i)
        fac = factorize(op, basis)
        leads = [b.label for b in basis.blocks if b.halves()]
        assert leads
        for label in leads:
            assert any(note.startswith("lead pair of %s not split" % label) for note in fac.notes)
        assert not any(b.label.endswith(("_lead", "_rest")) for b in fac.blocks)
        lifted = factorize(op, basis, tol_off=1.0)
        assert {b.label for b in lifted.blocks if b.label.endswith(("_lead", "_rest"))} == \
            {h for label in leads for h in (label + "_lead", label + "_rest")}


def assert_factors_equal_block_determinants(factors, Ab, Jb, omega, kind):
    """Each factor's values at the oracle samples equal the `slogdet` of its
    block pencil within 1e-12 of the largest |det| over those samples."""
    i = np.arange(20)
    ts = 2.0 * max(1.0, abs(omega)) * np.cos(np.pi * (2 * i + 1) / 40)
    signs, logs = np.linalg.slogdet(_pencils(Ab, Jb, omega, kind, ts))
    dets = signs * np.exp(logs)
    for f, det in zip(factors, dets):
        vals = np.array([np.prod(t - f.spectrum).real for t in ts])
        assert np.max(np.abs(vals - det)) <= 1e-12 * np.max(np.abs(det)), f.label


def test_stacked_factors_equal_block_factor():
    systems = list(grid_operators())[::7] + solved_split_systems()
    for op, basis in systems:
        fac = factorize(op, basis)
        for size in {blk.size for blk in fac.blocks}:
            same = [blk for blk in fac.blocks if blk.size == size]
            Ab = np.stack([blk.a_block for blk in same])
            Jb = np.stack([blk.j_block for blk in same])
            # the factors of one stack, and each block factored on its own
            assert_factors_equal_block_determinants(
                [blk.factor for blk in same], Ab, Jb, op.omega, op.potential.kind)
            assert_factors_equal_block_determinants(
                [block_factor(blk.label, blk.a_block, op.omega, op.potential.kind)
                 for blk in same],
                Ab, Jb, op.omega, op.potential.kind)
    # the D_48 system factors 23 blocks of size 8 as one stack
    assert sum(b.size == 8 for b in fac.blocks) == 23


def test_stacked_factors_mix_even_and_fallback():
    # one stack of a nilpotent block, whose factor is not even in lambda,
    # and an even one
    w = 1.1
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    Ab = np.stack([np.array([[0.0, 1.0], [0.0, 0.0]]), 0.3 * np.eye(2)])
    Jb = np.stack([J, J])
    stack = _block_factors(["odd", "even"], Ab, w, "homogeneous")
    assert_factors_equal_block_determinants(stack, Ab, Jb, w, "homogeneous")


def loop_log_product(factors, ts):
    """Per-factor, per-sample reference for `_factor_log_product`."""
    signs = np.ones(len(ts))
    logs = np.zeros(len(ts))
    for f in factors:
        for i, t in enumerate(ts):
            v = np.prod(t - f.spectrum).real
            if v == 0.0:
                signs[i] = 0.0
                logs[i] = -np.inf
            else:
                signs[i] *= np.sign(v)
                logs[i] += np.log(abs(v))
    return signs, logs


def test_factor_log_product_equals_loop():
    systems = list(grid_operators())[::5] + solved_split_systems()
    for op, basis in systems:
        fac = factorize(op, basis)
        ts = dense_oracle(op)[0] if op.system.npoints < 60 else \
            np.linspace(-2.0, 2.0, 20) * max(1.0, abs(op.omega))
        factors = [b.factor for b in fac.blocks]
        got, ref = _factor_log_product(factors, ts), loop_log_product(factors, ts)
        assert np.array_equal(got[0], ref[0])
        assert np.max(np.abs(got[1] - ref[1])) <= 1e-12
    # a root at a sample: sign 0 and log -inf, as in the loop
    f = block_factor("v", np.zeros((2, 2)), 0.0, "vortex")
    ts = np.array([0.0, 0.5])
    got, ref = _factor_log_product([f, f], ts), loop_log_product([f, f], ts)
    assert got[0][0] == 0.0 and got[1][0] == -np.inf == ref[1][0]
    assert np.array_equal(got[0], ref[0]) and abs(got[1][1] - ref[1][1]) <= 1e-12


# --- factorization ---------------------------------------------------------

def test_degree_profile_pentagon_vortex():
    op, basis = solved(5, [rs.regular(1.0, 1.0)], VORT)
    fac = factorize(op, basis)
    assert fac.degree_profile == [2, 4, 4]
    assert expected_degree_profile(5, 0, 1, 0) == [2, 4, 4]
    assert sum(fac.lambda_degrees) == 2 * op.system.npoints
    assert fac.oracle.max_rel_error <= 1e-8
    assert fac.oracle.max_rel_error < 1e-8


def test_degree_profile_hexagon():
    op, basis = solved(6, [rs.regular(1.0, 1.0)], VORT)
    fac = factorize(op, basis)
    assert fac.degree_profile == [2, 2, 4, 4]


def test_homogeneous_degrees_double():
    op, basis = solved(5, [rs.regular(1.0, 1.0)], NEWT)
    fac = factorize(op, basis)
    assert fac.degree_profile == [2, 4, 4]
    assert sum(fac.lambda_degrees) == 4 * op.system.npoints
    for f in [b.factor for b in fac.blocks]:
        assert abs(f.coefficients[-1] - 1.0) < 1e-10
        assert np.max(np.abs(f.coefficients[1::2])) <= 1e-8 * np.max(np.abs(f.coefficients))


def test_lead_factors_closed_form():
    # rotation/scaling factor lambda^2 (lambda^2 + (2 gamma + 4) omega^2),
    # translation factor (lambda^2 + omega^2)^2
    pot = rs.homogeneous(-1.2)
    op, basis = solved(4, [rs.center(4.0), rs.regular(1.0, 0.5), rs.regular(1.8, 1.0)],
                       pot, free=(2,))
    fac = factorize(op, basis)
    by_label = {b.label: b.factor for b in fac.blocks}
    w2 = op.omega ** 2
    ta = by_label["tau_alpha_lead"]
    assert_allclose(ta.coefficients, [0.0, 0.0, (2.0 * pot.gamma + 4.0) * w2, 0.0, 1.0],
                    atol=1e-8 * max(1.0, w2))
    sg = by_label["sigma_lead"]
    assert_allclose(sg.coefficients, [w2 ** 2, 0.0, 2.0 * w2, 0.0, 1.0],
                    atol=1e-8 * max(1.0, w2 ** 2))


def test_lead_factors_vortex():
    op, basis = solved(4, [rs.center(2.0), rs.regular(1.0, 1.0), rs.regular(2.1, 0.5)],
                       VORT, free=(2,))
    fac = factorize(op, basis)
    by_label = {b.label: b.factor for b in fac.blocks}
    assert_allclose(by_label["tau_alpha_lead"].coefficients, [0.0, 0.0, 1.0], atol=1e-9)
    assert_allclose(by_label["sigma_lead"].coefficients,
                    [op.omega ** 2, 0.0, 1.0], atol=1e-8 * max(1.0, op.omega ** 2))
    assert fac.oracle.max_rel_error <= 1e-8


@pytest.mark.parametrize("pot", [NEWT, VORT])
def test_classical_checks_at_releq(pot):
    op, _ = solved(6, [rs.regular(1.0, 1.0)], pot)
    res = classical_checks(op)
    assert len(res) == 2
    assert max(res.values()) < 1e-10
    assert rs.translation_kernel_residual(op) < 1e-10


def test_not_a_releq_keeps_coarse_blocks():
    sys = rs.build(5, [rs.regular(1.0, 1.0)])
    op = rs.stability_operator(sys, VORT, 1.1)
    assert not op.is_releq
    fac = factorize(op, rs.assemble_global_basis(sys))
    assert any("not a relative equilibrium" in s for s in fac.notes)
    assert fac.classical is None
    assert all("_lead" not in b.label for b in fac.blocks)
    # the oracle has nothing to do with equilibrium and still must pass
    assert fac.oracle.max_rel_error <= 1e-8


@pytest.mark.parametrize("pot", [NEWT, VORT])
def test_dense_oracle_pencils_equal_pencil(pot):
    # the oracle's 20 samples are exact pairs (t, -t), and it factors the
    # pencil at the partner |t| only, in reused buffers; each sample's
    # determinant is that of `pencil` at |t|, bit for bit
    op, _ = operator_at(4, [rs.center(1.5), rs.regular(1.0, 1.0),
                            rs.semiregular(1.9, 0.2, 0.5)], pot, 0.8)
    ts, signs, logs = dense_oracle(op)
    assert len(ts) == len(signs) == len(logs) == 20
    for i, (t, s, l) in enumerate(zip(ts, signs, logs)):
        assert t == -ts[-1 - i]
        ref = np.linalg.slogdet(pencil(op, abs(t)))
        assert (s, l) == (ref[0], ref[1])


def test_pencil_determinant_is_even():
    # the identity the oracle shares each (t, -t) pair on: H = M A is
    # symmetric and M, per-point diagonal, commutes with J, so
    # P(-t)^T = M P(t) M^-1 and det P(-t) = det P(t), sign included, for
    # either kind, any masses or vorticities and any omega.  Besides the
    # grid: a mixed-sign vortex pair, the D_2 vortex system with a -0.4
    # center, a negative-mass Newtonian ring and gamma = -0.7
    extra = [solved(5, [rs.regular(1.0, 1.0), rs.regular(2.0, -0.3)], VORT, free=(1,))[0],
             solved(2, [rs.center(-0.4), rs.regular(1.0, 1.0)], VORT)[0],
             operator_at(5, [rs.regular(1.0, -1.0)], NEWT, 1.0)[0],
             operator_at(6, [rs.center(1.5), rs.regular(1.0, 1.0),
                             rs.semiregular(1.9, 0.15, 0.5)], rs.homogeneous(-0.7), 1.0)[0]]
    cases = [(op, op.omega) for op, _ in grid_operators()]
    # off a relative equilibrium too: A does not depend on omega
    cases += [(op, w) for op in extra for w in (op.omega, 0.37, -1.3, 2.9)]
    for op, w in cases:
        ts = max(1.0, abs(w)) * np.array([0.05, 0.31, 0.9, 1.7, 2.6, 3.99])
        kind = op.potential.kind
        sp, lp = _slogdets(op.matrix, w, kind, ts)
        sm, lm = _slogdets(op.matrix, w, kind, -ts)
        key = (op.system.n, op.system.type_abc, kind, w)
        assert np.array_equal(sp, sm), key
        assert np.all(np.abs(lp - lm) <= 1e-13 * np.maximum(1.0, np.abs(lp))), key


def test_oracle_samples_match_factor_product():
    op, basis = operator_at(3, [rs.regular(1.0, 1.0), rs.semiregular(2.0, 0.3, 0.6)],
                            NEWT, 0.7)
    fac = factorize(op, basis)
    ts, signs, logs = dense_oracle(op)
    for t, s, l in zip(ts, signs, logs):
        prod = np.prod([np.prod(t - b.factor.spectrum).real for b in fac.blocks])
        assert_allclose(prod, s * np.exp(l), rtol=1e-7)


def test_vortex_j_maps_eigenvectors_to_eigenvectors():
    op, _ = solved(5, [rs.regular(1.0, 1.0)], VORT)
    A = op.matrix
    assert np.linalg.norm(A - A.T) < 1e-12
    _, vecs = np.linalg.eigh(A)
    J = j_matrix(op.system.npoints)
    scale = np.linalg.norm(A)
    for i in range(vecs.shape[1]):
        w = J @ vecs[:, i]
        mu = w @ A @ w / (w @ w)
        assert np.linalg.norm(A @ w - mu * w) / scale < 1e-7


def test_factor_roots_diagnostics():
    op, basis = solved(4, [rs.regular(1.0, 1.0)], VORT)
    fac = factorize(op, basis)
    for blk in fac.blocks:
        r = blk.factor.roots()
        assert len(r) == blk.factor.degree
        # lexicographic order by real part, then imaginary part
        key = np.lexsort((r.imag, r.real))
        assert list(key) == sorted(key)
    # block payload carries the matrices the factor was computed from
    assert fac.blocks[0].a_block.shape == (fac.blocks[0].size,) * 2


@pytest.mark.parametrize("pot", [NEWT, VORT])
def test_d2_rhombus_all_blocks_quadratic(pot):
    sol = rs.solve_releq(rs.build(2, [rs.regular(1.0, 1.0), rs.regular(1.4, 1.5)]),
                         pot, free_radii=())
    # a rhombus with fixed axis ratio is generally not an equilibrium; relax
    # the second radius to find one
    sol = rs.solve_releq(rs.build(2, [rs.regular(1.0, 1.0), rs.regular(1.4, 1.5)]),
                         pot, free_radii=(1,))
    assert sol.converged
    op = rs.stability_operator(sol.system, pot, sol.omega)
    fac = factorize(op, rs.assemble_global_basis(sol.system))
    assert [b.size for b in fac.blocks] == [2, 2, 2, 2]
    assert fac.oracle.max_rel_error <= 1e-8


# --- spectra from the block linearizations ---------------------------------

@pytest.mark.parametrize("n,rings", [
    (7, [rs.regular(1.0, 1.0), rs.regular(1.7, 1.0, phase=np.pi / 7),
         rs.semiregular(2.3, 0.2, 1.0), rs.semiregular(2.9, 0.3, 1.0)]),
    (12, [rs.center(3.0), rs.regular(1.0, 1.0), rs.regular(1.6, 1.0, phase=np.pi / 12),
          rs.semiregular(2.2, 0.1, 1.0), rs.semiregular(2.8, 0.2, 1.0)]),
])
def test_coefficients_do_not_depend_on_ring_order(n, rings):
    # a block's factor is the determinant of the pencil on an invariant
    # subspace, whatever basis the ring order gives that subspace
    facs = [factorize(*operator_at(n, order, NEWT, 1.0))
            for order in (rings, rings[::-1])]
    fwd, rev = ({b.label: b.factor.coefficients for b in fac.blocks} for fac in facs)
    assert set(fwd) == set(rev)
    for label, c in fwd.items():
        assert np.max(np.abs(c - rev[label])) <= 1e-7 * np.max(np.abs(c)), label


def test_coefficients_match_np_poly():
    # one stack's coefficients are expanded together, one factor
    # (lambda - r_j) at a time in np.poly's order.  The two round
    # differently, and on the grid's degree-48 and 52 factors, which cancel
    # heavily, they differ by up to 7e-7 of the largest coefficient, so they are
    # compared on the expansion's error scale, the coefficients of
    # prod (lambda + |r_j|)
    for op, basis in list(grid_operators()) + solved_split_systems():
        for f in [b.factor for b in factorize(op, basis).blocks]:
            ref = np.poly(f.spectrum).real[::-1]
            scale = np.poly(-np.abs(f.spectrum)).real[::-1]
            assert np.all(np.abs(f.coefficients - ref) <= 1e-14 * scale), f.label
            assert not f.coefficients.flags.writeable


def test_coefficients_match_block_determinants_on_the_grid():
    """The coefficient form of every factor on the acceptance grid
    (Newtonian at omega = 1, vortex at omega = 0.7) against the
    determinant of its own block pencil at the oracle's 20 samples,
    relative to max(|det|, 1e-9 max|det|) as in the oracle.  The roots are
    expanded in Leja order; in lexsort order 31 of the 352 cases read
    above 1e-7, the worst 3.4e-2."""
    bad = {}
    for n, a, b, c in type_grid():
        sys = grid_system(n, a, b, c)
        basis = rs.assemble_global_basis(sys)
        for pot, omega in ((NEWT, 1.0), (VORT, 0.7)):
            fac = factorize(rs.stability_operator(sys, pot, omega), basis)
            ts = 2.0 * max(1.0, omega) * np.cos(np.pi * (2 * np.arange(20) + 1) / 40)
            for size in {blk.size for blk in fac.blocks}:
                same = [blk for blk in fac.blocks if blk.size == size]
                det = np.linalg.det(_pencils(np.stack([blk.a_block for blk in same]),
                                             standard_j(size // 2), omega, pot.kind, ts))
                coeffs = np.array([blk.factor.coefficients for blk in same])
                form = np.polynomial.polynomial.polyval(ts, coeffs.T)
                den = np.maximum(np.abs(det), 1e-9 * np.abs(det).max(axis=1, keepdims=True))
                for blk, rel in zip(same, np.max(np.abs(form - det) / den, axis=1)):
                    if not rel <= 1e-7:
                        bad[(n, a, b, c, pot.kind, blk.label)] = rel
    assert not bad, bad


def test_roots_backward_error_at_large_n():
    op, basis = solved_split_systems()[-1]
    fac = factorize(op, basis)
    w = op.omega
    for blk in fac.blocks:
        eye = np.eye(blk.size)
        coeffs = [blk.a_block - w * w * eye, 2.0 * w * blk.j_block, eye]
        norms = [np.linalg.norm(c, 2) for c in coeffs]
        for lam in blk.factor.roots():
            P = sum(c * lam ** k for k, c in enumerate(coeffs))
            smin = np.linalg.svd(P, compute_uv=False)[-1]
            scale = sum(nrm * abs(lam) ** k for k, nrm in enumerate(norms))
            assert smin <= 1e-12 * scale, (blk.label, lam)


@pytest.mark.parametrize("n", range(3, 13))
def test_vortex_polygon_stability_thomson_havelock(n):
    # the regular vortex n-gon is linearly stable for n <= 6, degenerate at
    # n = 7 and unstable for n >= 8 (Havelock 1931)
    op, basis = solved(n, [rs.regular(1.0, 1.0)], VORT)
    fac = factorize(op, basis)
    growth = max(np.max(b.factor.roots().real) for b in fac.blocks)
    w = abs(op.omega)
    if n <= 6:
        assert growth <= 1e-9 * w
    elif n == 7:
        assert growth <= 1e-6 * w
    else:
        assert growth >= 0.5 * w
