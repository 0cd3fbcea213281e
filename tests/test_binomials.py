import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin import binomials, verify
from vilenkin.errors import DomainError


def test_known_values():
    t1 = binomials.cesaro_table(1.0, 10)
    assert np.array_equal(t1.values, np.arange(1, 12, dtype=float))
    t0 = binomials.cesaro_table(0.0, 10)
    assert np.array_equal(t0.values, np.ones(11))
    assert binomials.cesaro_table(-0.5, 2).a(2) == pytest.approx(0.375, abs=1e-15)
    assert binomials.cesaro_table(-0.5, 0).a(0) == 1.0


def test_table_matches_recurrence_bitwise():
    for alpha in (-0.75, -0.5, -0.25, 0.3, 1.5, -1.25):
        want = [1.0]
        for n in range(1, 5001):
            want.append(want[-1] * ((alpha + n) / n))
        assert np.array_equal(binomials.cesaro_table(alpha, 5000).values, np.array(want))


def test_side_index_is_zero():
    t = binomials.cesaro_table(-0.5, 10)
    assert t.a(-1) == 0.0
    assert t.a(0) == 1.0


def test_negative_integer_order_rejected():
    for alpha in (-1.0, -2.0, -7.0):
        with pytest.raises(DomainError):
            binomials.cesaro_table(alpha, 5)


def test_negative_order_positive_decreasing():
    for alpha in (-0.25, -0.5, -0.9):
        t = binomials.cesaro_table(alpha, 2000)
        assert np.all(t.values > 0)
        assert np.all(np.diff(t.values) < 0)


def test_difference_identity_tight():
    for alpha in (0.25, -0.25, 0.5, -0.5, 0.9, -0.9):
        difference, _ = verify.identity_report(alpha, 10_000)
        assert difference <= 1e-10


def test_sum_identity_full_range():
    # sum_{k=0}^{n} A_k^{alpha-1} telescopes to A_n^alpha
    for alpha in (0.5, -0.5):
        _, total = verify.identity_report(alpha, 10_000)
        assert total <= 1e-10


def test_asymptotic_ratio():
    for alpha in (0.5, -0.5):
        assert verify.asymptotic_ratio_residual(alpha, 10_000) <= 0.01


def test_ratio_deviation_shrinks_with_n():
    devs = [verify.asymptotic_ratio_residual(-0.5, n) for n in (100, 1000, 10_000)]
    assert devs[0] > devs[1] > devs[2]
    assert all(d <= 5.0 / n for d, n in zip(devs, (100, 1000, 10_000)))


@settings(max_examples=50, deadline=None)
@given(alpha=st.floats(-0.95, 0.95), n=st.integers(1, 300))
def test_recurrence_vs_product(alpha, n):
    # the running product (alpha+1)...(alpha+n)/n! equals the table entry
    t = binomials.cesaro_table(alpha, n)
    prod = 1.0
    for j in range(1, n + 1):
        prod *= (alpha + j) / j
    assert t.a(n) == pytest.approx(prod, rel=1e-12, abs=1e-300)
