import numpy as np
import pytest
from math import factorial

from boundfem.quadrature import (composite_rule, edge_rule, quadrature_rule,
                                 triangle_rule, MAX_DEGREE)


def exact_triangle_monomial(a, b):
    # int over reference triangle of x^a y^b
    return factorial(a) * factorial(b) / factorial(a + b + 2)


def test_triangle_degree1_is_centroid_rule():
    rule = quadrature_rule("triangle", 1)
    assert len(rule) == 1
    np.testing.assert_allclose(rule.points[0], [1 / 3, 1 / 3], atol=1e-15)
    np.testing.assert_allclose(rule.weights, [0.5], atol=1e-16)


def test_edge_degree3_is_two_point_gauss():
    rule = quadrature_rule("edge", 3)
    assert len(rule) == 2
    np.testing.assert_allclose(sorted(rule.points),
                               [0.5 - 0.5 / np.sqrt(3), 0.5 + 0.5 / np.sqrt(3)],
                               atol=1e-15)
    np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-16)
    # verify by integrating x^3 exactly
    assert abs(np.sum(rule.weights * rule.points ** 3) - 0.25) < 1e-15


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5, 7, 10, 15])
def test_triangle_monomial_exactness(degree):
    rule = triangle_rule(degree)
    assert np.all(rule.weights > 0)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
            exact = exact_triangle_monomial(a, b)
            assert abs(got - exact) <= 1e-13 * exact


@pytest.mark.parametrize("degree", [0, 1, 4, 9, 16])
def test_edge_monomial_exactness(degree):
    rule = edge_rule(degree)
    assert np.all(rule.weights > 0)
    for a in range(degree + 1):
        got = np.sum(rule.weights * rule.points ** a)
        assert abs(got - 1.0 / (a + 1)) < 1e-14


def test_unsupported_degree_rejected():
    with pytest.raises(ValueError):
        triangle_rule(-1)
    with pytest.raises(ValueError):
        triangle_rule(MAX_DEGREE + 1)
    with pytest.raises(ValueError):
        edge_rule(-2)
    with pytest.raises(ValueError):
        quadrature_rule("square", 2)


@pytest.mark.parametrize("depth", [0, 1, 3, 6])
def test_composite_rule_stays_exact_and_reaches_corners(depth):
    rule = composite_rule(4, depth)
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 0.5) < 1e-14
    for a in range(5):
        for b in range(5 - a):
            got = np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
            exact = exact_triangle_monomial(a, b)
            assert abs(got - exact) <= 1e-13 * exact
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    reach = max(np.linalg.norm(rule.points - c, axis=1).min() for c in corners)
    assert reach <= 0.25 * 2.0 ** (1 - depth)


@pytest.mark.parametrize("rule_fn", [triangle_rule, edge_rule])
def test_rules_are_cached_and_read_only(rule_fn):
    rule = rule_fn(7)
    assert rule_fn(7) is rule
    for arr in (rule.points, rule.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0
