import numpy as np
import pytest

from varietyrec import (VarietySpec, dim_complex_symmetric, dim_low_rank,
                        dim_sparse, difference_closure, lift_rank_one,
                        membership, project, witness_to_collision)
from varietyrec.varieties import _KINDS, _norm, _projection, hermitize


def test_dim_low_rank_values():
    assert dim_low_rank(4, 1) == 7
    assert dim_low_rank(4, 2) == 12
    for d in (1, 2, 5, 9):
        assert dim_low_rank(d, d) == d * d
    with pytest.raises(ValueError):
        dim_low_rank(4, 5)
    with pytest.raises(ValueError):
        dim_low_rank(4, -1)


def test_dim_low_rank_doubling_identity():
    # 2d(2r) - (2r)^2 == 4dr - 4r^2
    for d in range(1, 65):
        for r in range(1, d // 2 + 1):
            assert dim_low_rank(d, 2 * r) == 4 * d * r - 4 * r * r


def test_dim_complex_symmetric_values():
    assert dim_complex_symmetric(4, 1) == 4
    assert dim_complex_symmetric(5, 2) == 9
    for d in (1, 3, 6):
        assert dim_complex_symmetric(d, d) == d * (d + 1) // 2


def test_dim_sparse_values():
    assert dim_sparse(8, 2) == 2
    assert dim_sparse(5, 0) == 0
    assert dim_sparse(6, 6) == 6


def test_difference_closure_mapping():
    assert difference_closure(VarietySpec.sparse(8, 2)) == VarietySpec.sparse(8, 4)
    assert (difference_closure(VarietySpec.low_rank(4, 1))
            == VarietySpec.low_rank(4, 2))
    assert difference_closure(VarietySpec.sparse(4, 3)) == VarietySpec.sparse(4, 4)
    hs = VarietySpec.herm_sig(5)
    assert difference_closure(hs) == hs
    ro = VarietySpec.rank_one_real(5)
    assert difference_closure(ro) == ro


def test_difference_closure_monotone():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = int(rng.integers(1, 12))
        k = int(rng.integers(0, d + 1))
        w = VarietySpec.sparse(d, k)
        out = difference_closure(w)
        assert k <= out.param <= d
        r = int(rng.integers(0, d + 1))
        w = VarietySpec.low_rank(d, r)
        out = difference_closure(w)
        assert r <= out.param <= d


def test_dimension_bounded_by_ambient():
    for d in range(1, 10):
        for k in range(d + 1):
            assert 0 <= VarietySpec.sparse(d, k).dimension() <= d
            assert 0 <= VarietySpec.low_rank(d, k).dimension() <= d * d
        assert VarietySpec.herm_sig(d).dimension() <= d * d
        assert VarietySpec.rank_one_real(d).dimension() <= d * d


def test_project_examples():
    out = project(np.diag([3.0, 1.0]), VarietySpec.low_rank(2, 1, "real"))
    assert np.allclose(out, np.diag([3.0, 0.0]))

    out = project(np.array([5.0, -1.0, 2.0]), VarietySpec.sparse(3, 1))
    assert np.array_equal(out, np.array([5.0, 0.0, 0.0]))

    out = project(np.eye(2), VarietySpec.herm_sig(2))
    assert np.allclose(out, np.diag([1.0, 0.0]))


def test_project_sparse_tie_break_lowest_index():
    out = project(np.array([2.0, -2.0, 2.0]), VarietySpec.sparse(3, 2))
    assert np.array_equal(out, np.array([2.0, -2.0, 0.0]))


def test_project_rejects_non_finite():
    with pytest.raises(ValueError):
        project(np.array([np.nan, 0.0]), VarietySpec.sparse(2, 1))
    rng = np.random.default_rng(3)
    for w in _PROJECTABLE:
        x = _random_point(rng, w)
        for bad in (np.nan, np.inf, -np.inf):
            for value in (complex(bad, 0.0), complex(0.0, bad)):
                y = x.astype(complex)
                y.flat[-1] = value
                with pytest.raises(ValueError, match="non-finite"):
                    project(y, w)
            if not np.iscomplexobj(x):
                y = x.copy()
                y.flat[0] = bad
                with pytest.raises(ValueError, match="non-finite"):
                    project(y, w)


def test_project_rejects_wrong_shape():
    for w in _PROJECTABLE:
        d = w.d
        for shape in ((d + 1,), (d, d + 1), (d, d, 1), (d * d,)):
            if shape == w.ambient_shape():
                continue
            with pytest.raises(ValueError, match="does not match ambient"):
                project(np.ones(shape), w)


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def test_projection_kernel_is_project_bit_for_bit():
    rng = np.random.default_rng(5)
    for w in _PROJECTABLE + [VarietySpec.sparse(5, 0),
                             VarietySpec.low_rank(3, 0, "complex"),
                             VarietySpec.low_rank(3, 3, "real")]:
        kernel = _projection(w)
        for _ in range(40):
            x = _random_point(rng, w)
            if w.kind == "herm_sig":
                # the kernel takes a Hermitian matrix; project hermitizes
                # it, and the kernel's result, Hermitian only to rounding
                assert _same(
                    hermitize(kernel(hermitize(x).astype(complex), w)),
                    project(x, w))
                h = hermitize(x)
                assert _same(hermitize(kernel(h, w)), project(h, w))
            else:
                assert _same(kernel(x, w), project(x, w))


def test_project_herm_sig_is_exactly_hermitian():
    rng = np.random.default_rng(8)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q = project(x, VarietySpec.herm_sig(d))
        assert np.array_equal(q, q.conj().T)


def test_projection_kernel_sparse_ties():
    rng = np.random.default_rng(6)
    for field in ("real", "complex"):
        for _ in range(100):
            d = int(rng.integers(1, 9))
            w = VarietySpec.sparse(d, int(rng.integers(0, d + 1)), field)
            # magnitudes from {0, 1, 2}: most draws tie across the cut
            x = rng.integers(-2, 3, d).astype(float)
            if field == "complex":
                x = x * np.exp(1j * np.pi / 2 * rng.integers(0, 4, d))
            out = _projection(w)(x, w)
            assert _same(out, project(x, w))
            # ties keep the lowest indices
            keep = np.flatnonzero(out)
            order = sorted(range(d), key=lambda i: (-abs(x[i]), i))
            assert set(keep) <= set(order[:w.param])
            assert np.array_equal(out[order[:w.param]], x[order[:w.param]])


def test_projection_kernel_herm_sig_one_sided_spectrum():
    rng = np.random.default_rng(7)
    w = VarietySpec.herm_sig(4)
    kernel = _projection(w)
    for sign in (1.0, -1.0):
        for _ in range(20):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = hermitize(sign * (g @ g.conj().T + 0.1 * np.eye(4)))
            out = kernel(h, w)
            assert _same(hermitize(out), project(h, w))
            vals = np.linalg.eigvalsh(h)
            # only the extreme eigenvalue of the one sign is kept
            kept = np.linalg.eigvalsh(hermitize(out))
            top = vals[-1] if sign > 0 else vals[0]
            assert np.isclose(np.abs(kept).max(), abs(top))
            assert np.count_nonzero(np.abs(kept) > 1e-9 * abs(top)) == 1
    assert _same(kernel(np.zeros((4, 4), dtype=complex), w),
                 np.zeros((4, 4), dtype=complex))


def test_projection_kernel_real_low_rank_reads_the_real_part():
    rng = np.random.default_rng(8)
    for w in (VarietySpec.low_rank(4, 2, "real"), VarietySpec.rank_one_real(4)):
        for _ in range(20):
            x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            out = _projection(w)(x, w)
            assert out.dtype == np.float64
            assert _same(out, project(x, w))
            assert _same(out, project(x.real, w))


def test_projection_kernel_refuses_kinds_without_projection():
    # every kind has a projection; a kind without one, such as the
    # retired sym_low_rank, is refused by the spec before any lookup
    for kind in _KINDS:
        w = next(w for w in _PROJECTABLE if w.kind == kind)
        assert callable(_projection(w))
    with pytest.raises(ValueError, match="unknown kind"):
        _projection(VarietySpec("sym_low_rank", 3, 1, "complex"))
    with pytest.raises(ValueError, match="unknown kind"):
        VarietySpec.from_json({"kind": "sym_low_rank", "d": 4, "k_or_r": 2,
                               "field": "complex"})


def _random_point(rng, w):
    kind, d = w.ambient
    if kind == "vector":
        x = rng.standard_normal(d)
        if w.field == "complex":
            x = x + 1j * rng.standard_normal(d)
        return x
    x = rng.standard_normal((d, d))
    if w.field == "complex":
        x = x + 1j * rng.standard_normal((d, d))
    return x


_PROJECTABLE = [
    VarietySpec.sparse(7, 3),
    VarietySpec.sparse(6, 2, "complex"),
    VarietySpec.low_rank(5, 2, "real"),
    VarietySpec.low_rank(4, 1, "complex"),
    VarietySpec.herm_sig(4),
    VarietySpec.rank_one_real(5),
]


def test_projection_idempotent_and_member():
    rng = np.random.default_rng(7)
    for case in range(200):
        w = _PROJECTABLE[case % len(_PROJECTABLE)]
        x = _random_point(rng, w)
        p = project(x, w)
        p2 = project(p, w)
        assert np.linalg.norm(p2 - p) <= 1e-12 * max(1.0, np.linalg.norm(p))
        assert membership(p, w, 1e-8)


def test_every_kind_is_a_signal_kind():
    """Every kind has a difference closure and a projection onto it; the
    projections are members, and a projected difference splits into two
    signals whose difference (of lifts, for the quadratic kinds) is it."""
    assert {w.kind for w in _PROJECTABLE} == set(_KINDS)
    rng = np.random.default_rng(13)
    for w in _PROJECTABLE:
        dw = difference_closure(w)
        for _ in range(10):
            q = project(_random_point(rng, dw), dw)
            assert membership(q, dw)
            x, y = witness_to_collision(q, w)
            if w.kind in ("herm_sig", "rank_one_real"):
                x, y = lift_rank_one(x), lift_rank_one(y)
                # rank_one_real splits q into lifts 4 (q + q^T) / 2 apart
                q = hermitize(q) * (4.0 if w.kind == "rank_one_real" else 1.0)
            assert membership(x, w) and membership(y, w)
            np.testing.assert_allclose(x - y, q, atol=1e-12)


def test_eckart_young_optimality():
    rng = np.random.default_rng(11)
    for case in range(200):
        d = int(rng.integers(2, 7))
        r = int(rng.integers(1, d))
        w = VarietySpec.low_rank(d, r, "real")
        x = rng.standard_normal((d, d))
        p = project(x, w)
        base = np.linalg.norm(x - p)
        for _ in range(3):
            y = rng.standard_normal((d, r)) @ rng.standard_normal((r, d))
            assert base <= np.linalg.norm(x - y) + 1e-9


def test_membership_examples():
    assert membership(np.diag([1.0, 0.0]), VarietySpec.low_rank(2, 1, "real"),
                      1e-10)
    assert not membership(np.eye(2), VarietySpec.low_rank(2, 1, "real"), 1e-10)
    assert membership(np.array([1.0, 0.0, 0.0, 1.0]), VarietySpec.sparse(4, 2),
                      0.0)
    assert membership(np.zeros((3, 3)), VarietySpec.low_rank(3, 0, "real"))


def test_membership_herm_sig_signature():
    # rank 2 but signature (2, 0): not a difference of rank-one PSD lifts
    assert not membership(np.eye(2, dtype=complex), VarietySpec.herm_sig(2))
    x = np.diag([1.0, -0.5]).astype(complex)
    assert membership(x, VarietySpec.herm_sig(2))


def test_membership_is_the_distance_to_the_projection():
    # sigma_2 = 6e-9 is below 1e-8 ||x||, but the three dropped singular
    # values put x at distance sqrt(3) * 6e-9 from the rank-one matrices
    x = np.diag([1.0, 6e-9, 6e-9, 6e-9])
    assert not membership(x, VarietySpec.low_rank(4, 1, "real"), 1e-8)
    assert membership(x, VarietySpec.low_rank(4, 1, "real"), 2e-8)
    # the projection drops an anti-Hermitian part and, on a real variety,
    # an imaginary part, so both count toward the distance
    h = np.diag([1.0, -1.0]).astype(complex)
    assert membership(h, VarietySpec.herm_sig(2))
    skew = 1e-6 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert not membership(h + skew, VarietySpec.herm_sig(2))
    real = np.diag([1.0, 0.0])
    for w in (VarietySpec.low_rank(2, 1, "real"), VarietySpec.rank_one_real(2)):
        assert membership(real + 0j, w)
        assert not membership(real + 1e-6j * np.ones((2, 2)), w)
    assert membership(real + 1e-6j * np.ones((2, 2)),
                      VarietySpec.low_rank(2, 2, "complex"))


def test_spec_json_round_trip():
    for w in _PROJECTABLE:
        assert VarietySpec.from_json(w.to_json()) == w


def test_spec_validation():
    with pytest.raises(ValueError):
        VarietySpec.sparse(4, 5)
    with pytest.raises(ValueError):
        VarietySpec("no_such_kind", 4, 1, "real")
    with pytest.raises(ValueError):
        VarietySpec("sparse", 4, 1, "rational")


def test_norm_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.standard_normal((6, 5)) * 10.0 ** rng.integers(-8, 8)
        c = a + 1j * rng.standard_normal((6, 5))
        for x in (a, c):
            for v in (x, x.T, x[::2, 1::2], x[::-1], x[0], x[:, 1],
                      x.ravel()[::3], np.asfortranarray(x)):
                want = np.linalg.norm(v)
                got = _norm(v)
                assert type(got) is float
                assert got == want, v
