import numpy as np
import pytest
from numpy.testing import assert_allclose

import ringstab as rs
from ringstab.dynamics import (PAIR_CHUNK, _force_scale, _ring_balance, _ring_forces, _row_forces,
                               apply_j, gradient, hessian, releq_residual)
from ringstab.geometry import ring_positions
from reference import (_check_collisions, j_matrix, pair_gradient, pair_hessian, pair_row_forces,
                       potential_value)
from test_acceptance import grid_system, type_grid
from test_symadapt import mixed_sign_systems

RNG = np.random.default_rng(40823)


def pair_system(d):
    # two unit masses at distance d, realized as one 2-gon of radius d/2
    return rs.build(2, [rs.regular(d / 2.0, 1.0)])


def mixed_system(n=5):
    return rs.build(n, [rs.center(2.0), rs.regular(1.0, 1.0),
                        rs.semiregular(1.9, np.pi / (3 * n), 0.7)])


def test_potential_pair_values():
    assert_allclose(potential_value(pair_system(1.0), rs.vortex()), 0.0, atol=1e-15)
    assert_allclose(potential_value(pair_system(1.0), rs.homogeneous(-1.5)), -1.0)
    # gamma = 1: d^4 / 4
    assert_allclose(potential_value(pair_system(2.0), rs.homogeneous(1.0)), 4.0)
    assert_allclose(potential_value(pair_system(np.e), rs.vortex()), -1.0)


def test_potential_square_hand_sum():
    sys = rs.build(4, [rs.regular(1.0, 1.0)])
    # four sides sqrt(2), two diagonals 2
    assert_allclose(potential_value(sys, rs.homogeneous(-1.5)), -(4.0 / np.sqrt(2.0) + 1.0))
    assert_allclose(potential_value(sys, rs.vortex()),
                    -(4.0 * np.log(np.sqrt(2.0)) + 2.0 * np.log(2.0)))


def fd_gradient(sys, pot, h=1e-6):
    x = sys.config_vector
    out = np.empty_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        up = potential_value(_shifted(sys, e), pot)
        dn = potential_value(_shifted(sys, -e), pot)
        out[i] = (up - dn) / (2.0 * h)
    return out


def _shifted(sys, delta):
    pos = sys.positions + delta.reshape(-1, 2)
    return rs.geometry.RingSystem(n=sys.n, rings=sys.rings, positions=pos,
                                  masses=sys.masses, orbit_slices=sys.orbit_slices)


@pytest.mark.parametrize("pot", [rs.vortex(), rs.homogeneous(-1.5), rs.homogeneous(0.5)])
def test_gradient_matches_finite_differences(pot):
    sys = mixed_system()
    g = gradient(sys, pot)
    fd = fd_gradient(sys, pot)
    assert_allclose(g, fd, rtol=2e-6, atol=1e-7 * (1.0 + np.max(np.abs(g))))


def test_gradient_translation_sum():
    sys = mixed_system(4)
    for pot in (rs.vortex(), rs.homogeneous(-1.5)):
        g = gradient(sys, pot).reshape(-1, 2)
        assert_allclose(g.sum(axis=0), [0.0, 0.0], atol=1e-12)


def full_gradient_fd(sys, pot, step=1e-6):
    """Central differences of the full analytic gradient, one coordinate at
    a time: the O(N^3) reference for the pair-local hessian_fd."""
    x = sys.config_vector
    out = np.empty((len(x), len(x)))
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = step * max(1.0, abs(x[j]))
        out[:, j] = (gradient(_shifted(sys, e), pot) - gradient(_shifted(sys, -e), pot)) / (2.0 * e[j])
    return out


def acceptance_system(n, a, b, c):
    """tests/test_acceptance.py::grid_system"""
    rings = [rs.center(1.3)] if a else []
    rings += [rs.regular(1.0 + 1.1 * i, 1.0 + 0.5 * i, phase=(np.pi / n if i % 2 else 0.0))
              for i in range(b)]
    rings += [rs.semiregular(3.3 + 1.3 * i, np.pi / (n * (3 + i)), 0.8 + 0.3 * i) for i in range(c)]
    return rs.build(n, rings)


#: the picks of tests/test_acceptance.py::test_criterion_04_equivariance_and_hessian
ACCEPTANCE_PICKS = [(3, 0, 2, 0), (4, 1, 1, 1), (5, 0, 1, 2), (6, 1, 2, 0), (7, 0, 0, 1),
                    (8, 1, 2, 2)]


@pytest.mark.parametrize("pick", ACCEPTANCE_PICKS)
def test_pair_local_hessian_fd_matches_full_gradient_fd(pick):
    sys = acceptance_system(*pick)
    for pot in (rs.newtonian(), rs.vortex(), rs.homogeneous(0.5)):
        ref = full_gradient_fd(sys, pot)
        fd = rs.hessian_fd(sys, pot)
        assert np.linalg.norm(fd - ref) <= 1e-8 * np.linalg.norm(ref), (pick, pot.kind)


@pytest.mark.parametrize("pick", ACCEPTANCE_PICKS)
def test_complex_step_hessian_matches_analytic_hessian(pick):
    # the complex step takes no difference, so it meets the analytic
    # Hessian at rounding level, where central differences stop at ~1e-10
    sys = acceptance_system(*pick)
    for pot in (rs.newtonian(), rs.vortex(), rs.homogeneous(0.5)):
        H = hessian(sys, pot)
        cs = rs.hessian_fd(sys, pot)
        assert np.linalg.norm(cs - H) <= 1e-14 * np.linalg.norm(H), (pick, pot.kind)


def bit_equal(a, b):
    """Equal arrays with equal signs of zero."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


PAIR_POTENTIALS = [rs.homogeneous(-1.5), rs.homogeneous(-0.5), rs.homogeneous(0.7), rs.vortex()]


def several_chunk_systems():
    """A center and two rings, of opposite mass signs, with N = PAIR_CHUNK + 1,
    2 PAIR_CHUNK + 1 and 2 PAIR_CHUNK + 3 points: two or three chunks."""
    return [rs.build(n, [rs.center(4.0), rs.regular(1.0, 0.5), rs.regular(1.8, -1.0, phase=np.pi / n)])
            for n in (PAIR_CHUNK // 2, PAIR_CHUNK, PAIR_CHUNK + 1)]


@pytest.mark.parametrize("n", list(range(2, 13)) + ["mixed signs", "several chunks"])
def test_pair_kernels_equal_the_pair_block_reference(n):
    """`hessian` and `gradient` against the (N, N, 2, 2) and (N, N, 2)
    references bit for bit, signs of zero included, for every potential of
    PAIR_POTENTIALS: on the type grid (centers, staggered and semiregular
    rings), the mixed-sign systems and systems of several chunks.  The
    solver's forces at one point, a single column, match too."""
    if n == "mixed signs":
        systems = mixed_sign_systems()
    elif n == "several chunks":
        systems = several_chunk_systems()
    else:
        systems = [grid_system(*key) for key in type_grid() if key[0] == n]
    for sys in systems:
        last = np.array([sys.npoints - 1])
        for pot in PAIR_POTENTIALS:
            assert bit_equal(hessian(sys, pot), pair_hessian(sys, pot)), (sys.n, sys.rings, pot)
            assert bit_equal(gradient(sys, pot), pair_gradient(sys, pot)), (sys.n, sys.rings, pot)
            got, w = _row_forces(sys.positions, sys.masses, last, pot)
            want, w_ref = pair_row_forces(sys.positions, sys.masses, last, pot)
            assert bit_equal(got, want) and bit_equal(w.T, w_ref), (sys.n, sys.rings, pot)


@pytest.mark.parametrize("pot", [rs.vortex(), rs.homogeneous(-1.5)])
def test_hessian_symmetric_and_fd(pot):
    sys = mixed_system(4)
    H = hessian(sys, pot)
    assert_allclose(H, H.T, atol=1e-12)
    assert rs.hessian_fd_residual(rs.stability_operator(sys, pot, 1.0)) < 1e-12


def test_hessian_fd_residual_default_tolerance():
    sys = rs.build(6, [rs.regular(1.0, 1.0), rs.regular(2.2, 3.0, phase=np.pi / 6)])
    assert rs.hessian_fd_residual(rs.stability_operator(sys, rs.newtonian(), 1.0)) < 1e-12


@pytest.mark.parametrize("pot", [rs.vortex(), rs.homogeneous(-1.5)])
def test_equivariance(pot):
    masses = RNG.uniform(0.5, 2.0, size=3)
    sys = rs.build(5, [rs.center(masses[0]), rs.regular(1.0, masses[1]),
                       rs.semiregular(1.6, 0.11, masses[2])])
    op = rs.stability_operator(sys, pot, 1.0)
    assert rs.equivariance_residual(op) < 1e-9
    assert rs.translation_kernel_residual(op) < 1e-9


def test_apply_j():
    w = RNG.standard_normal(10)
    J = j_matrix(5)
    assert_allclose(apply_j(w), J @ w)
    assert_allclose(J @ J, -np.eye(10))
    assert_allclose(apply_j(apply_j(w)), -w)


# frozen closed forms for a single ring of unit radius and unit masses:
# vortex omega = (n - 1) / 2, homogeneous (gamma = -3/2)
# omega^2 = (1/4) sum_j csc(pi j / n)

@pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
def test_single_ring_omega_newtonian(n):
    sol = rs.solve_releq(rs.build(n, [rs.regular(1.0, 1.0)]), rs.newtonian())
    assert sol.converged
    pred = 0.25 * sum(1.0 / np.sin(np.pi * j / n) for j in range(1, n))
    assert_allclose(sol.omega ** 2, pred, rtol=1e-10)
    assert sol.omega > 0


@pytest.mark.parametrize("n", [3, 5, 7])
def test_single_ring_omega_vortex(n):
    sol = rs.solve_releq(rs.build(n, [rs.regular(1.0, 1.0)]), rs.vortex())
    assert sol.converged
    assert_allclose(sol.omega, (n - 1) / 2.0, rtol=1e-12)


def test_centered_ring_omega():
    # central mass adds m0 / R^2 to the radial pull
    sol = rs.solve_releq(rs.build(4, [rs.center(4.0), rs.regular(1.0, 1.0)]),
                         rs.newtonian())
    pred = 4.0 + 0.25 * sum(1.0 / np.sin(np.pi * j / 4) for j in range(1, 4))
    assert_allclose(sol.omega ** 2, pred, rtol=1e-10)


def test_two_ring_free_radius():
    sys = rs.build(4, [rs.center(4.0), rs.regular(1.0, 0.5), rs.regular(1.8, 1.0)])
    sol = rs.solve_releq(sys, rs.newtonian(), free_radii=(2,))
    assert sol.converged
    assert np.linalg.norm(releq_residual(sol.system, rs.newtonian(), sol.omega)) < 1e-10
    assert sol.radii.shape == (3,)
    assert sol.radii[0] == 0.0 and sol.radii[1] == 1.0
    assert 1.0 < sol.radii[2] < 2.5


def test_collinear_free_radius_vortex():
    sys = rs.build(2, [rs.regular(1.0, 1.0), rs.regular(3.0, 1.0)])
    sol = rs.solve_releq(sys, rs.vortex(), free_radii=(1,))
    assert sol.converged
    assert np.linalg.norm(releq_residual(sol.system, rs.vortex(), sol.omega)) < 1e-10


def test_releq_residual_detects_wrong_omega():
    sys = rs.build(5, [rs.regular(1.0, 1.0)])
    assert np.linalg.norm(releq_residual(sys, rs.vortex(), 2.0)) < 1e-12
    assert np.linalg.norm(releq_residual(sys, rs.vortex(), 1.0)) > 0.1


def test_omega_sign_symmetry():
    sys = rs.build(5, [rs.regular(1.0, 1.0)])
    pot = rs.newtonian()
    sol = rs.solve_releq(sys, pot)
    # the time-reversed rotation is again an equilibrium for even-order forces
    assert np.linalg.norm(releq_residual(sol.system, pot, -sol.omega)) < 1e-10
    # vortices fix the sense of rotation
    vsol = rs.solve_releq(sys, rs.vortex())
    assert np.linalg.norm(releq_residual(vsol.system, rs.vortex(), -vsol.omega)) > 0.1


def test_solver_argument_validation():
    sys = rs.build(4, [rs.center(1.0), rs.regular(1.0, 1.0), rs.regular(2.0, 1.0)])
    pot = rs.newtonian()
    with pytest.raises(ValueError, match="out of range"):
        rs.solve_releq(sys, pot, free_radii=(7,))
    with pytest.raises(ValueError, match="center ring"):
        rs.solve_releq(sys, pot, free_radii=(0,))
    with pytest.raises(ValueError, match="radius gauge"):
        rs.solve_releq(sys, pot, free_radii=(1,))


def test_solver_reports_nonconvergence():
    # a dominant negative center mass leaves no real rotation rate
    sys = rs.build(4, [rs.center(-3.0), rs.regular(1.0, 1.0)])
    sol = rs.solve_releq(sys, rs.newtonian())
    assert not sol.converged
    assert sol.iterations > 0


def test_solver_stalls_early_without_equilibrium():
    # two fixed vortex rings admit no common rotation rate: the residual
    # drops once and then stays put
    sys = rs.build(5, [rs.regular(1.0, 1.0), rs.regular(2.2, 1.0, phase=np.pi / 5)])
    sol = rs.solve_releq(sys, rs.vortex())
    assert not sol.converged
    assert sol.stop == "stalled"
    assert sol.iterations <= 10
    assert sol.reduced_norm > 0.1


def acceptance_grid():
    # the type grid of test_acceptance, n = 2..12
    for n in range(2, 13):
        for a in (0, 1):
            for b in (0, 1, 2):
                for c in (0, 1, 2):
                    if b + c == 0:
                        continue
                    rings = [rs.center(1.3)] if a else []
                    rings += [rs.regular(1.0 + 1.1 * i, 1.0 + 0.5 * i,
                                         phase=(np.pi / n if i % 2 else 0.0))
                              for i in range(b)]
                    rings += [rs.semiregular(3.3 + 1.3 * i, np.pi / (n * (3 + i)), 0.8 + 0.3 * i)
                              for i in range(c)]
                    yield n, rings


def ring_residual_cases():
    for n, rings in acceptance_grid():
        yield n, rings, rs.newtonian()
        yield n, rings, rs.vortex()
    yield 7, [rs.center(2.0), rs.regular(1.0, 1.0), rs.semiregular(1.9, np.pi / 21, 0.7)], \
        rs.newtonian()
    yield 5, [rs.regular(1.0, 1.0), rs.regular(1.6, -0.4, phase=np.pi / 5),
              rs.semiregular(2.5, np.pi / 15, 0.3)], rs.vortex()
    yield 6, [rs.regular(1.0, 1.0), rs.regular(1.8, 0.5, phase=np.pi / 6)], rs.vortex()
    yield 8, [rs.center(2.0), rs.regular(1.0, 1.0), rs.semiregular(1.9, np.pi / 24, 0.7)], \
        rs.homogeneous(-0.7)
    for pot in (rs.newtonian(), rs.vortex(), rs.homogeneous(0.5)):
        yield 6, [rs.center(1.5), rs.regular(1.0, 1.0), rs.semiregular(1.7, np.pi / 15, 0.6)], pot


def test_ring_residual_is_projected_full_residual():
    # the solver's O(N * rings) residual equals releq_residual at the first
    # point of each non-center ring, projected on (r-hat, t-hat)
    for n, rings, pot in ring_residual_cases():
        sys = rs.build(n, rings)
        omega = 0.7
        full = releq_residual(sys, pot, omega).reshape(-1, 2)
        ref = []
        for i, spec in enumerate(sys.rings):
            if spec.kind == "center":
                continue
            p = sys.orbit_slices[i].start
            rhat = sys.positions[p] / np.linalg.norm(sys.positions[p])
            ref += [full[p] @ rhat, full[p] @ np.array([-rhat[1], rhat[0]])]
        forces = _ring_forces(n, rings, pot)
        got = _ring_balance(forces, pot, omega)
        scale = _force_scale(gradient(sys, pot))
        assert np.max(np.abs(got - np.array(ref))) <= 1e-14 * scale, (n, rings, pot)
        # the same row kernel: grad F at the representatives, bit for bit
        reps = [sl.start for sl, spec in zip(sys.orbit_slices, sys.rings) if spec.kind != "center"]
        assert np.array_equal(forces.grad, gradient(sys, pot).reshape(-1, 2)[reps]), (n, rings, pot)


@pytest.mark.parametrize("ring", [
    rs.regular(1.0, 2.0),                          # the inner ring's radius and phase
    rs.regular(1.0 + 5e-10, 2.0),                  # inside the collision tolerance
    rs.regular(0.0, 2.0),
    rs.regular(-0.5, 2.0),
])
def test_ring_forces_reject_invalid_trials(ring):
    rings = [rs.center(1.0), rs.regular(1.0, 1.0), ring]
    with pytest.raises(ValueError):
        rs.build(6, rings)
    assert _ring_forces(6, rings, rs.newtonian()) is None


def test_ring_forces_accept_near_miss():
    rings = [rs.center(1.0), rs.regular(1.0, 1.0), rs.regular(1.0 + 2e-9, 2.0)]
    rs.build(6, rings)
    assert _ring_forces(6, rings, rs.newtonian()) is not None


def near_coincidence_rings(n):
    """Rings that meet each other, or themselves, within a few 1e-9."""
    for r in (1.0, 1.0 + 5e-10, 1.0 + 2e-9, 5e-10, 2e-9, 1.5):
        for phase in (0.0, np.pi / n):
            yield rs.regular(r, 2.0, phase=phase)
    for mu in (4e-10, 2e-9, np.pi / n - 4e-10, np.pi / n - 2e-9, 0.3 / n):
        yield rs.semiregular(1.0, mu, 0.5)


@pytest.mark.parametrize("n", range(2, 10))
def test_coincidence_rule_matches_all_pairs_scan(n):
    # `build` checks coincidence at each ring's first point only; it must
    # refuse exactly the systems the all-pairs reference scan refuses, and
    # the solver's `_ring_forces` exactly the systems `build` refuses
    for ring in (rs.regular(0.0, 2.0), rs.regular(-0.5, 2.0)):
        rings = [rs.center(1.0), rs.regular(1.0, 1.0), ring]
        with pytest.raises(ValueError, match="invalid radius"):
            rs.build(n, rings)
        assert _ring_forces(n, rings, rs.newtonian()) is None
    refused = accepted = 0
    cands = list(near_coincidence_rings(n))
    for i, first in enumerate(cands):
        for second in [None] + cands[i:]:
            for lead in ([], [rs.center(1.0)]):
                rings = lead + [first] + ([second] if second else [])
                try:
                    _check_collisions(np.vstack([ring_positions(n, r) for r in rings]))
                    expect = None
                except ValueError as exc:
                    expect = str(exc)
                try:
                    rs.build(n, rings)
                    got = None
                except ValueError as exc:
                    assert "collision" in str(exc), (rings, exc)
                    got = str(exc)
                assert (got is None) == (expect is None), (rings, got, expect)
                assert (_ring_forces(n, rings, rs.newtonian()) is None) == (got is not None)
                refused += got is not None
                accepted += got is None
    assert refused > 100 and accepted > 100, (refused, accepted)


def test_solver_builds_once_and_takes_no_full_gradient_while_iterating(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(rs.dynamics, "build", counted("build", rs.dynamics.build))
    monkeypatch.setattr(rs.dynamics, "gradient", counted("gradient", rs.dynamics.gradient))
    cases = [
        (rs.build(4, [rs.center(4.0), rs.regular(1.0, 0.5), rs.regular(1.8, 1.0)]),
         rs.newtonian(), (2,)),
        (rs.build(5, [rs.regular(1.0, 1.0)]), rs.vortex(), ()),
        (rs.build(5, [rs.regular(1.0, 1.0), rs.regular(2.2, 1.0, phase=np.pi / 5)]),
         rs.vortex(), ()),
    ]
    for sys, pot, free in cases:
        calls.clear()
        rs.solve_releq(sys, pot, free_radii=free)
        # one build of the returned system, and no full gradient at all
        assert calls == ["build"], calls


@pytest.mark.parametrize("n", [96, 192, 384])
def test_solver_converges_at_scale(n):
    # the ROADMAP baseline system: the force scale grows with n, so an
    # absolute stop rule stalls on the rounding floor here
    sys = rs.build(n, [rs.center(4.0), rs.regular(1.0, 0.5),
                       rs.regular(1.8, 1.0, phase=np.pi / n)])
    pot = rs.newtonian()
    sol = rs.solve_releq(sys, pot, free_radii=(2,))
    assert sol.converged and sol.stop == "converged"
    assert sol.iterations <= 8
    full = releq_residual(sol.system, pot, sol.omega)
    assert np.max(np.abs(full)) <= 1e-11 * np.max(np.abs(gradient(sol.system, pot)))


def test_stability_operator_flags():
    sys = rs.build(5, [rs.regular(1.0, 1.0)])
    pot = rs.vortex()
    op = rs.stability_operator(sys, pot, 2.0)
    assert op.is_releq
    assert op.matrix.shape == (10, 10)
    assert np.all(np.isfinite(op.matrix))
    assert not rs.stability_operator(sys, pot, 2.3).is_releq


def test_gamma_validation():
    with pytest.raises(ValueError, match="gamma = -1"):
        rs.homogeneous(-1.0)
    for gamma in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="invalid gamma"):
            rs.homogeneous(gamma)
