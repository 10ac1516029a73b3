import numpy as np
import pytest
from numpy.testing import assert_allclose

import ringstab as rs
from ringstab.dihedral import full_group, planar_action, reflection, rotation
from ringstab.geometry import RingSystem, ring_positions


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
    assert_allclose(sys.orbit_points(1), sys.positions[1:5])
    assert list(sys.orbit_of) == [0] + [1] * 4 + [2] * 8


@pytest.mark.parametrize("n", [2, 3, 5])
def test_permutation_action(n):
    sys = rs.build(n, [rs.center(2.0), rs.regular(1.0, 1.0), rs.semiregular(1.7, np.pi / (3 * n), 0.5)])
    x = sys.config_vector
    for g in full_group(n):
        p = sys.group_action().perm[full_group(n).index(g)]
        assert_allclose(np.sort(p), np.arange(sys.npoints))
        s = sys.sigma_matrix(g)
        # the configuration itself is a fixed point of the action
        assert_allclose(s @ x, x, atol=1e-12)
        # masses are constant on orbits, so sigma is an M-isometry
        m = sys.mass_diag
        assert_allclose(s.T @ (m[:, None] * s), np.diag(m), atol=1e-12)


def test_sigma_is_representation():
    sys = rs.build(4, [rs.regular(1.0, 1.0), rs.semiregular(2.0, 0.2, 1.5)])
    for g in (rotation(4, 3), reflection(4, 1)):
        for h in (rotation(4, 1), reflection(4, 2)):
            assert_allclose(sys.sigma_matrix(g) @ sys.sigma_matrix(h),
                            sys.sigma_matrix(g * h), atol=1e-12)
        assert_allclose(sys.sigma_matrix(g) @ sys.sigma_matrix(g.inverse()),
                        np.eye(2 * sys.npoints), atol=1e-12)
        perm = sys.group_action().perm[full_group(4).index(g)]
        S = sys.sigma_matrix(g)
        for i in range(sys.npoints):
            j = perm[i]
            assert_allclose(S[2 * j:2 * j + 2, 2 * i:2 * i + 2], planar_action(g), atol=0)


def test_build_validation():
    with pytest.raises(ValueError, match="at most one center"):
        rs.build(3, [rs.center(1.0), rs.center(1.0), rs.regular(1.0, 1.0)])
    with pytest.raises(ValueError, match="non-center"):
        rs.build(3, [rs.center(1.0)])
    with pytest.raises(ValueError, match="empty ring list"):
        rs.build(3, [])
    with pytest.raises(ValueError, match="invalid mass"):
        rs.build(3, [rs.regular(1.0, 0.0)])
    with pytest.raises(ValueError, match="collision"):
        rs.build(4, [rs.regular(1.0, 1.0), rs.regular(1.0, 2.0)])
    with pytest.raises(ValueError, match="group order mismatch"):
        rs.build(1, [rs.regular(1.0, 1.0)])


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


def test_asymmetric_point_set_names_the_point():
    sys = rs.build(5, [rs.regular(1.0, 1.0)])
    sys.positions = sys.positions.copy()
    sys.positions[3] += [1e-3, 0.0]
    # r moves point 2 onto the old place of point 3, which is now empty
    with pytest.raises(ValueError, match=r"system not D_n-symmetric: point 2 leaves the set "
                                         r"under r\^1\(D_5\)"):
        sys.group_action()
    # a pentagon at phase 0.3 is invariant under r but not under s
    ang = 0.3 + 2.0 * np.pi * np.arange(5) / 5
    chiral = RingSystem(n=5, rings=sys.rings, positions=np.column_stack([np.cos(ang), np.sin(ang)]),
                        masses=sys.masses, orbit_of=sys.orbit_of, orbit_slices=sys.orbit_slices)
    with pytest.raises(ValueError, match=r"point 0 leaves the set under s\(D_5\)"):
        chiral.group_action()
    # a doubled point: every image lies in the set, but r hits point 1 twice
    doubled = RingSystem(n=5, rings=sys.rings,
                         positions=np.vstack([ring_positions(5, rs.regular(1.0, 1.0)), [[1.0, 0.0]]]),
                         masses=np.ones(6), orbit_of=np.zeros(6, dtype=int),
                         orbit_slices=[slice(0, 6)])
    with pytest.raises(ValueError, match="action is not a permutation"):
        doubled.group_action()
