import numpy as np
import pytest

from varietyrec import (VarietySpec, dim_complex_symmetric, dim_low_rank,
                        dim_sparse, difference_closure, membership, project)
from varietyrec.varieties import _norm


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
    with pytest.raises(ValueError):
        difference_closure(VarietySpec.sym_low_rank(4, 2))


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


def test_spec_json_round_trip():
    for w in _PROJECTABLE + [VarietySpec.sym_low_rank(4, 2)]:
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
