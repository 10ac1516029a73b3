import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ringstab as rs
from ringstab import cli
from ringstab.geometry import ring_positions
from reference import (full_group, matched_perm, planar_action, reflection, rotation,
                       sigma_matrix)


def test_regular_positions_exact():
    pts = ring_positions(6, rs.regular(2.0, 1.0, phase=np.pi / 6))
    ang = np.pi / 6 + 2.0 * np.pi * np.arange(6) / 6
    assert_allclose(pts, 2.0 * np.column_stack([np.cos(ang), np.sin(ang)]), atol=1e-14)


def test_semiregular_positions_pairing():
    mu = 0.4
    pts = ring_positions(4, rs.semiregular(1.5, mu, 1.0))
    assert pts.shape == (8, 2)
    # consecutive pairs sit at +mu and -mu around each rotated copy
    th = np.arctan2(pts[:, 1], pts[:, 0])
    assert_allclose(th[0], mu, atol=1e-14)
    assert_allclose(th[1], -mu, atol=1e-14)
    assert_allclose(np.linalg.norm(pts, axis=1), 1.5, atol=1e-14)


def test_center_point():
    sys = rs.build(5, [rs.center(3.0), rs.regular(1.0, 1.0)])
    assert_allclose(sys.positions[0], [0.0, 0.0])
    assert sys.masses[0] == 3.0


@pytest.mark.parametrize("n,a,b,c", [(3, 0, 1, 0), (4, 1, 2, 0), (5, 0, 1, 2),
                                     (2, 1, 1, 1), (6, 1, 0, 1)])
def test_point_count_and_type(n, a, b, c):
    rings = []
    if a:
        rings.append(rs.center(2.0))
    for i in range(b):
        rings.append(rs.regular(1.0 + 0.7 * i, 1.0 + i))
    for i in range(c):
        rings.append(rs.semiregular(2.5 + 0.6 * i, np.pi / (n * (3 + i)), 1.0))
    sys = rs.build(n, rings)
    assert sys.type_abc == (a, b, c)
    assert sys.npoints == a + b * n + 2 * c * n
    assert sys.config_vector.shape == (2 * sys.npoints,)
    assert sys.mass_diag.shape == (2 * sys.npoints,)
    assert_allclose(sys.mass_diag[0::2], sys.masses)
    assert_allclose(sys.mass_diag[1::2], sys.masses)


def test_orbit_slices():
    sys = rs.build(4, [rs.center(1.0), rs.regular(1.0, 2.0), rs.semiregular(2.0, 0.3, 3.0)])
    assert [s.stop - s.start for s in sys.orbit_slices] == [1, 4, 8]


@pytest.mark.parametrize("n", [2, 3, 5])
def test_permutation_action(n):
    sys = rs.build(n, [rs.center(2.0), rs.regular(1.0, 1.0), rs.semiregular(1.7, np.pi / (3 * n), 0.5)])
    x = sys.config_vector
    for g in full_group(n):
        p = matched_perm(sys)[full_group(n).index(g)]
        assert_allclose(np.sort(p), np.arange(sys.npoints))
        s = sigma_matrix(sys, g)
        # the configuration itself is a fixed point of the action
        assert_allclose(s @ x, x, atol=1e-12)
        # masses are constant on orbits, so sigma is an M-isometry
        m = sys.mass_diag
        assert_allclose(s.T @ (m[:, None] * s), np.diag(m), atol=1e-12)


def test_sigma_is_representation():
    sys = rs.build(4, [rs.regular(1.0, 1.0), rs.semiregular(2.0, 0.2, 1.5)])
    for g in (rotation(4, 3), reflection(4, 1)):
        for h in (rotation(4, 1), reflection(4, 2)):
            assert_allclose(sigma_matrix(sys, g) @ sigma_matrix(sys, h),
                            sigma_matrix(sys, g * h), atol=1e-12)
        # reflections are involutions; r^j is undone by r^-j
        g_inv = g if g.ref else rotation(4, -g.rot)
        assert_allclose(sigma_matrix(sys, g) @ sigma_matrix(sys, g_inv),
                        np.eye(2 * sys.npoints), atol=1e-12)
        perm = matched_perm(sys)[full_group(4).index(g)]
        S = sigma_matrix(sys, g)
        for i in range(sys.npoints):
            j = perm[i]
            assert_allclose(S[2 * j:2 * j + 2, 2 * i:2 * i + 2], planar_action(g), atol=0)


def test_generator_blocks_equal_the_planar_action_of_r_and_s():
    # the closed-form planar blocks of r and s are the reference's planar
    # action of those elements bit for bit, signed zeros included
    for n in range(2, 257):
        blocks = rs.build(n, [rs.regular(1.0, 1.0)]).group_action().blocks
        ref = np.array([planar_action(rotation(n)), planar_action(reflection(n))])
        assert np.array_equal(blocks, ref), n
        assert np.array_equal(np.signbit(blocks), np.signbit(ref)), n


def test_build_validation():
    with pytest.raises(ValueError, match="at most one center"):
        rs.build(3, [rs.center(1.0), rs.center(1.0), rs.regular(1.0, 1.0)])
    with pytest.raises(ValueError, match="non-center"):
        rs.build(3, [rs.center(1.0)])
    with pytest.raises(ValueError, match="empty ring list"):
        rs.build(3, [])
    with pytest.raises(ValueError, match="invalid mass"):
        rs.build(3, [rs.regular(1.0, 0.0)])
    # named by a ring's first point and the point nearest to it
    with pytest.raises(ValueError, match="^collision: points 0 and 4 coincide$"):
        rs.build(4, [rs.regular(1.0, 1.0), rs.regular(1.0, 2.0)])
    with pytest.raises(ValueError, match="group order mismatch"):
        rs.build(1, [rs.regular(1.0, 1.0)])


def test_build_memory_grows_with_points_times_rings():
    # the coincidence rule reads one distance row per ring, not all N^2
    # pairs: at D_4096 (N = 8193) a chunked all-pairs scan peaks at ~56 MB
    rings = [rs.center(4.0), rs.regular(1.0, 1.0), rs.regular(1.8, 1.0, phase=np.pi / 4096)]
    tracemalloc.start()
    try:
        rs.build(4096, rings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak


def test_group_action_memory_grows_with_points_not_group_order():
    # r and s are held as two rows of N labels and two 2x2 blocks: at D_1024
    # a table of all 2n permutations and planar blocks peaks at ~50 MB
    sys = rs.build(1024, [rs.center(4.0), rs.regular(1.0, 1.0),
                          rs.regular(1.8, 1.0, phase=np.pi / 1024)])
    tracemalloc.start()
    try:
        act = sys.group_action()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert act.perm.shape == (2, sys.npoints) and act.blocks.shape == (2, 2, 2)
    assert peak < 2 ** 20, peak


def test_ring_system_needs_its_orbit_slices():
    # without the slices the group action would read no ring and return
    # uninitialized labels
    sys = rs.build(5, [rs.regular(1.0, 1.0)])
    with pytest.raises(TypeError, match="orbit_slices"):
        rs.geometry.RingSystem(sys.n, sys.rings, sys.positions, sys.masses)


def test_ring_validation():
    with pytest.raises(ValueError, match="invalid radius"):
        ring_positions(4, rs.regular(0.0, 1.0))
    with pytest.raises(ValueError, match="allow 0 or pi/n"):
        ring_positions(4, rs.regular(1.0, 1.0, phase=0.3))
    with pytest.raises(ValueError, match="need 0 < mu"):
        ring_positions(4, rs.semiregular(1.0, np.pi / 4, 1.0))
    with pytest.raises(ValueError, match="unknown ring kind"):
        rs.geometry.RingSpec("pentagon", 1.0)
    for radius in (np.inf, np.nan):
        with pytest.raises(ValueError, match="invalid radius"):
            ring_positions(4, rs.regular(radius, 1.0))
        with pytest.raises(ValueError, match="^ring 1: invalid radius"):
            rs.build(4, [rs.center(1.0), rs.semiregular(radius, 0.3, 1.0)])


def test_phase_pi_over_n_offsets_ring():
    a = rs.build(4, [rs.regular(1.0, 1.0), rs.regular(2.0, 1.0, phase=np.pi / 4)])
    th = np.arctan2(a.positions[4:, 1], a.positions[4:, 0])
    assert_allclose(th[0], np.pi / 4, atol=1e-14)


def test_moved_point_fails_equivariance_of_a():
    """The group action reads no position: it is read off the ring order,
    which `build` makes D_n-symmetric.  A point moved off that order by
    hand is caught by the check that compares A with the action, verify's
    equivariance of A (residual 2.7e-3 against its 1e-9 gate)."""
    sys = rs.build(5, [rs.regular(1.0, 1.0)])
    sys.positions = sys.positions.copy()
    sys.positions[3] += [1e-3, 0.0]
    op = rs.stability_operator(sys, rs.vortex(), 1.0)
    basis = rs.assemble_global_basis(sys)
    items = cli.invariant_suite(op, basis, rs.factorize(op, basis), {}.get)
    item = next(it for it in items if it["name"] == "equivariance of A")
    assert item["status"] == "FAIL" and item["residual"] > 1e-3, item
