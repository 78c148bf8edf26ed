import os
import subprocess
import sys
from math import factorial

import numpy as np
import pytest

import boundfem
from boundfem.quadrature import MAX_DEGREE, _gauss_jacobi10, edge_rule, triangle_rule


def exact_triangle_monomial(a, b):
    # int over reference triangle of x^a y^b
    return factorial(a) * factorial(b) / factorial(a + b + 2)


def test_triangle_degree1_is_centroid_rule():
    rule = triangle_rule(1)
    assert len(rule) == 1
    np.testing.assert_allclose(rule.points[0], [1 / 3, 1 / 3], atol=1e-15)
    np.testing.assert_allclose(rule.weights, [0.5], atol=1e-16)


def test_edge_degree3_is_two_point_gauss():
    rule = edge_rule(3)
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


@pytest.mark.parametrize("rule_fn", [triangle_rule, edge_rule])
def test_rules_are_cached_and_read_only(rule_fn):
    rule = rule_fn(7)
    assert rule_fn(7) is rule
    for arr in (rule.points, rule.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("n", range(1, MAX_DEGREE // 2 + 2))
def test_gauss_jacobi_matches_scipy(n):
    # scipy's roots_jacobi(n, 1, 0) weights are themselves off by up to
    # 5.5e-13 relative (against 40-digit references), so the weights are
    # held to 1e-12 of scipy's and to 1e-14 through the exact moments
    from scipy.special import roots_jacobi
    x, w = _gauss_jacobi10(n)
    x_ref, w_ref = roots_jacobi(n, 1.0, 0.0)
    np.testing.assert_allclose(x, x_ref, rtol=1e-14, atol=0)
    np.testing.assert_allclose(w, w_ref, rtol=1e-12, atol=0)
    for k in range(2 * n):
        # int_{-1}^{1} (1 - x) x^k dx
        exact = 2.0 / (k + 1) if k % 2 == 0 else -2.0 / (k + 2)
        terms = w * x ** k
        assert abs(terms.sum() - exact) <= 1e-14 * np.abs(terms).sum()


def test_import_leaves_scipy_special_out():
    # in a fresh interpreter: the test above imports scipy.special into this one
    src = os.path.dirname(os.path.dirname(boundfem.__file__))
    code = "import sys, boundfem; sys.exit('scipy.special' in sys.modules)"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=src))
