import numpy as np
import pytest
from numpy.testing import assert_allclose

from reference import (ALPHA, PHI, PSI, TAU, full_group, irrep_list, irrep_matrix,
                       planar_action, reflection, rho, rotation)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 11])
def test_group_order(n):
    g = full_group(n)
    assert len(g) == 2 * n
    assert len(set(g)) == 2 * n


def test_compose_mismatched_orders():
    with pytest.raises(ValueError, match="group order mismatch"):
        rotation(3) * rotation(4)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_irrep_homomorphism(n):
    group = full_group(n)
    labels = irrep_list(n)
    for lab in labels:
        for g in group:
            for h in group:
                lhs = irrep_matrix(lab, g * h)
                rhs = irrep_matrix(lab, g) @ irrep_matrix(lab, h)
                assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("rep", [planar_action])
@pytest.mark.parametrize("n", [3, 5, 6])
def test_planar_homomorphism(rep, n):
    group = full_group(n)
    for g in group:
        for h in group:
            assert_allclose(rep(g * h), rep(g) @ rep(h), atol=1e-12)


def test_rotation_matrix_entries():
    n, k, j = 7, 2, 3
    m = irrep_matrix(rho(k), rotation(n, j))
    t = 2.0 * np.pi * k * j / n
    assert_allclose(m, [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]], atol=1e-15)


def test_reflection_determinants():
    for n in (4, 5):
        for j in range(n):
            assert_allclose(np.linalg.det(irrep_matrix(rho(1), reflection(n, j))), -1.0, atol=1e-12)
            assert_allclose(np.linalg.det(irrep_matrix(rho(1), rotation(n, j))), 1.0, atol=1e-12)


def test_planar_action_reflection_axis():
    s = reflection(6)
    assert_allclose(planar_action(s), np.diag([1.0, -1.0]), atol=1e-15)
    r = rotation(6, 2)
    assert_allclose(planar_action(r), irrep_matrix(rho(1), r), atol=1e-15)


def test_irrep_list_contents():
    assert irrep_list(2) == [TAU, ALPHA, PHI, PSI]
    assert irrep_list(5) == [TAU, ALPHA, rho(1), rho(2)]
    assert irrep_list(6) == [TAU, ALPHA, PHI, PSI, rho(1), rho(2)]


@pytest.mark.parametrize("n", range(2, 10))
def test_sum_of_squared_degrees(n):
    labels = irrep_list(n)
    assert sum(irrep_matrix(lab, rotation(n, 0)).shape[0] ** 2 for lab in labels) == 2 * n


@pytest.mark.parametrize("n", [3, 4, 6, 7])
def test_character_orthogonality(n):
    group = full_group(n)
    labels = irrep_list(n)
    chars = {lab: np.array([np.trace(irrep_matrix(lab, g)) for g in group])
             for lab in labels}
    for a in labels:
        for b in labels:
            ip = float(chars[a] @ chars[b]) / (2 * n)
            assert_allclose(ip, 1.0 if a == b else 0.0, atol=1e-12)


def test_irrep_validation():
    with pytest.raises(ValueError):
        irrep_matrix(PHI, rotation(5))
    with pytest.raises(ValueError):
        irrep_matrix(rho(3), rotation(5))
    with pytest.raises(ValueError):
        rho(0)
    with pytest.raises(ValueError):
        irrep_list(1)
