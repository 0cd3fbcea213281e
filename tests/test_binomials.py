import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin import binomials, verify
from vilenkin.errors import DomainError, UsageError


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


def _fresh(alpha, n_max):
    """The recurrence term by term: the bytes a table built for this request alone holds."""
    want = [1.0]
    for n in range(1, n_max + 1):
        want.append(want[-1] * ((alpha + n) / n))
    return np.array(want)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
def test_non_finite_order_rejected(alpha):
    with pytest.raises(DomainError):
        binomials.cesaro_table(alpha, 3)


@pytest.mark.parametrize("n_max", [True, False, 2.5, 3.0, "3", None, np.float64(3)])
def test_non_integral_length_rejected(n_max):
    with pytest.raises(UsageError):
        binomials.cesaro_table(-0.5, n_max)


def test_numpy_integer_length_accepted():
    for n_max in (np.int64(7), np.int32(7), np.uint8(7)):
        assert np.array_equal(binomials.cesaro_table(-0.5, n_max).values, _fresh(-0.5, 7))


@settings(max_examples=100, deadline=None)
@given(requests=st.lists(st.tuples(st.sampled_from([-0.25, -0.5, -0.75, 0.3, 1.5, -1.25]),
                                   st.integers(0, 3000)), min_size=1, max_size=12))
def test_any_request_order_reads_a_fresh_build(requests):
    # six alphas against four retained: hits, prefix views, growth and evictions
    for alpha, n_max in requests:
        t = binomials.cesaro_table(alpha, n_max)
        assert t.alpha == alpha and t.values.dtype == np.float64
        assert t.values.tobytes() == _fresh(alpha, n_max).tobytes()
        assert not t.values.flags.writeable


def test_descending_and_interleaved_requests_read_fresh_builds():
    alphas = (-0.5, -0.25, 0.5, -0.75, 0.25, -0.9)
    for n_max in (4000, 2500, 1000, 10, 0, 1, 3999, 4001, 9000):
        for alpha in alphas:
            assert np.array_equal(binomials.cesaro_table(alpha, n_max).values,
                                  _fresh(alpha, n_max))


def test_retained_tables_are_read_only():
    t = binomials.cesaro_table(-0.5, 100)
    with pytest.raises(ValueError):
        t.values[0] = 2.0
    with pytest.raises(ValueError):
        t.values.setflags(write=True)
    assert binomials.cesaro_table(-0.5, 100).a(0) == 1.0


def test_ascending_run_rebuilds_logarithmically(monkeypatch):
    builds = []
    original = binomials._build

    def counted(alpha, length):
        builds.append(length)
        return original(alpha, length)

    monkeypatch.setattr(binomials, "_build", counted)
    alpha = -0.4321  # an alpha no other test retains
    for n_max in range(1, 4097):
        assert binomials.cesaro_table(alpha, n_max).a(n_max) == _fresh(alpha, n_max)[-1]
    # each build at least doubles the last, and is at most twice its request
    assert builds == [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192]


def test_retained_memory_is_bounded():
    for j in range(2 * binomials._RETAINED_ALPHAS):
        binomials.cesaro_table(-0.01 * (j + 1), 3000)
    long = binomials.cesaro_table(-0.5, binomials._RETAINED_ENTRIES)  # one past the bound
    assert len(long.values) == binomials._RETAINED_ENTRIES + 1
    retained = dict(binomials._retained)
    assert len(retained) == binomials._RETAINED_ALPHAS
    assert all(len(v) <= binomials._RETAINED_ENTRIES for v in retained.values())
    assert -0.5 not in retained and -0.01 not in retained


def test_threads_read_fresh_builds():
    # the CLI's pool scans on threads; each table read must hold the bytes of a fresh build
    alphas = (-0.15, -0.35, -0.55, -0.7, -0.85, -0.95)
    want = {a: _fresh(a, 2000) for a in alphas}
    errors = []

    def work(seed):
        rng = np.random.default_rng(seed)
        for _ in range(300):
            alpha, n_max = alphas[rng.integers(len(alphas))], int(rng.integers(0, 2001))
            if binomials.cesaro_table(alpha, n_max).values.tobytes() != \
                    want[alpha][: n_max + 1].tobytes():
                errors.append((alpha, n_max))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(binomials._retained) <= binomials._RETAINED_ALPHAS
