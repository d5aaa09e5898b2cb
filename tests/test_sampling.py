import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varietyrec import (MeasurementEnsemble, apply, builtin11_ensemble,
                        derived_rng, ensemble_from_json, ensemble_to_json,
                        gen_gaussian_matrices, gen_gaussian_vectors,
                        gen_hermitian_rank, gen_symmetric_rank, jsonio,
                        lift_ensemble, lift_rank_one, samples_to_json, tau,
                        tau_inverse)
from varietyrec.varieties import hermitize


def _basis_matrix(d, i, j):
    a = np.zeros((d, d))
    a[i, j] = 1.0
    return a


def test_apply_examples():
    d = 3
    e = MeasurementEnsemble("real", "matrix", d, [np.eye(d)])
    assert np.allclose(apply(e, np.eye(d)).y, [d])

    e = MeasurementEnsemble("real", "matrix", 2,
                            [_basis_matrix(2, 0, 0), _basis_matrix(2, 1, 1)])
    assert np.allclose(apply(e, np.diag([3.0, 5.0])).y, [3.0, 5.0])

    e = builtin11_ensemble()
    y = apply(e, _basis_matrix(4, 0, 0)).y
    assert y[0] == -4.0  # the (1,1) entry of the first reference matrix


def test_apply_defers_the_provenance_digest():
    e = gen_gaussian_matrices(3, 5, "complex", seed=4)
    s = apply(e, np.eye(3))
    assert e._digest is None
    assert samples_to_json(s)["provenance"] == e.digest
    assert samples_to_json(apply(e, np.eye(3)))["provenance"] == e.digest


def test_apply_shape_mismatch():
    e = MeasurementEnsemble("real", "matrix", 2, [np.eye(2)])
    with pytest.raises(ValueError):
        apply(e, np.zeros(2))


def test_apply_linearity():
    rng = np.random.default_rng(3)
    e = gen_gaussian_vectors(5, 4, "complex", seed=0)
    for _ in range(20):
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        a, b = (rng.standard_normal() + 1j * rng.standard_normal(),
                rng.standard_normal() + 1j * rng.standard_normal())
        lhs = apply(e, a * x + b * y).y
        rhs = a * apply(e, x).y + b * apply(e, y).y
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))

    em = gen_gaussian_matrices(4, 5, "complex", seed=0)
    for _ in range(20):
        # real scalars: matrix sampling conjugates the signal (Tr(A X*))
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a, b = rng.standard_normal(), rng.standard_normal()
        lhs = apply(em, a * x + b * y).y
        rhs = a * apply(em, x).y + b * apply(em, y).y
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))


def test_apply_conjugation_convention():
    rng = np.random.default_rng(4)
    em = gen_gaussian_matrices(3, 4, "real", seed=1)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(apply(em, x.conj()).y, apply(em, x).y.conj())
    ev = gen_gaussian_vectors(3, 4, "real", seed=1)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert np.allclose(apply(ev, v.conj()).y, apply(ev, v).y.conj())


def test_lift_rank_one_examples():
    e1 = np.array([1.0, 0.0])
    assert np.array_equal(lift_rank_one(e1), _basis_matrix(2, 0, 0))
    a = np.array([1.0, 1.0j])
    assert np.allclose(lift_rank_one(a), np.array([[1, -1j], [1j, 1]]))
    assert np.array_equal(lift_rank_one(np.zeros(3)), np.zeros((3, 3)))


def test_lift_is_psd_with_trace_norm():
    rng = np.random.default_rng(5)
    for _ in range(30):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        hat = lift_rank_one(a)
        vals = np.linalg.eigvalsh(hat)
        assert vals.min() >= -1e-12
        assert abs(np.trace(hat).real - np.linalg.norm(a) ** 2) <= 1e-10


def test_lift_identity():
    rng = np.random.default_rng(6)
    for _ in range(100):
        a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        lhs = abs(np.vdot(a, x)) ** 2
        rhs = np.vdot(lift_rank_one(x), lift_rank_one(a))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_tau_examples():
    assert np.array_equal(tau(np.eye(3)), np.eye(3).astype(complex))
    e12 = _basis_matrix(2, 0, 1)
    assert np.allclose(tau(e12), np.array([[0, 0.5 + 0.5j], [0.5 - 0.5j, 0]]))
    q0 = np.zeros((4, 4))
    q0[0, 3], q0[3, 0] = 1.0, -1.0
    assert np.allclose(tau(q0), 1j * q0)
    with pytest.raises(ValueError):
        tau(np.eye(2) * 1j)


def test_tau_round_trips():
    rng = np.random.default_rng(8)
    for _ in range(100):
        a = rng.standard_normal((4, 4))
        assert np.linalg.norm(tau_inverse(tau(a)) - a) <= 1e-12
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = 0.5 * (h + h.conj().T)
        assert np.linalg.norm(tau(tau_inverse(h)) - h) <= 1e-12
    assert np.array_equal(tau_inverse(np.diag([2.0, 3.0]).astype(complex)),
                          np.diag([2.0, 3.0]))
    with pytest.raises(ValueError):
        tau_inverse(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_tau_is_isometry():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = rng.standard_normal((5, 5))
        assert abs(np.linalg.norm(tau(a)) - np.linalg.norm(a)) <= 1e-12


def test_generators_deterministic_and_prefix_stable():
    e1 = gen_gaussian_vectors(3, 5, "real", seed=7)
    e2 = gen_gaussian_vectors(3, 5, "real", seed=7)
    for a, b in zip(e1.operators, e2.operators):
        assert np.array_equal(a, b)
    assert jsonio.dumps(ensemble_to_json(e1)) == jsonio.dumps(ensemble_to_json(e2))
    bigger = gen_gaussian_vectors(3, 8, "real", seed=7)
    for a, b in zip(e1.operators, bigger.operators):
        assert np.array_equal(a, b)
    assert not np.array_equal(e1.operators[0],
                              gen_gaussian_vectors(3, 5, "real", seed=8).operators[0])


def test_gen_symmetric_rank():
    e = gen_symmetric_rank(4, (1, 2, 0), seed=2)
    for a, r in zip(e.operators, (1, 2, 0)):
        assert np.array_equal(a, a.T)
        s = np.linalg.svd(a, compute_uv=False)
        if r < 4:
            assert s[r] <= 1e-10 * max(s[0], 1.0)
    assert np.array_equal(e.operators[2], np.zeros((4, 4)))
    full = gen_symmetric_rank(3, (3,), seed=1)
    s = np.linalg.svd(full.operators[0], compute_uv=False)
    assert s[2] > 1e-8


def test_gen_hermitian_rank():
    e = gen_hermitian_rank(3, (1, 2, 3), seed=3)
    for a in e.operators:
        assert np.max(np.abs(a - a.conj().T)) == 0.0
    # a rank-one operator with positive weight is a lift of its eigenvector
    for seed in range(10):
        a = gen_hermitian_rank(3, (1,), seed=seed).operators[0]
        vals, vecs = np.linalg.eigh(a)
        if vals[-1] > 0 and abs(vals[0]) < 1e-12:
            v = np.sqrt(vals[-1]) * vecs[:, -1]
            assert np.allclose(lift_rank_one(v), a)
            break
    else:
        raise AssertionError("no PSD rank-one draw in 10 seeds")


def test_lift_ensemble():
    e = gen_gaussian_vectors(3, 4, "complex", seed=0)
    le = lift_ensemble(e)
    assert le.hermitian and le.ranks == [1] * 4
    x = np.array([1.0, 2.0, -1.0]) + 0j
    direct = np.abs(e.stack().conj() @ x) ** 2
    lifted = apply(le, lift_rank_one(x)).y
    assert np.allclose(direct, lifted.real)


def test_operators_are_one_read_only_array():
    e = gen_gaussian_matrices(3, 4, "complex", seed=2)
    assert isinstance(e.operators, np.ndarray)
    assert e.operators.shape == (4, 3, 3)
    with pytest.raises(ValueError):
        e.operators[0] = np.eye(3)
    with pytest.raises(AttributeError):
        e.operators.append(np.eye(3))
    assert np.shares_memory(e.stack(), e.operators)
    assert e.m == 4 and len(apply(e, np.eye(3)).y) == 4
    assert ensemble_to_json(e)["m"] == len(ensemble_to_json(e)["operators"])
    # the caller's array is copied, not frozen or aliased
    ops = np.ones((2, 3))
    v = MeasurementEnsemble("real", "vector", 3, ops)
    assert ops.flags.writeable and not np.shares_memory(v.operators, ops)


def test_ensembles_compare_and_hash_by_identity():
    a = gen_gaussian_vectors(3, 4, seed=1)
    b = gen_gaussian_vectors(3, 4, seed=1)
    assert (a == b) is False and a == a
    assert a.digest == b.digest  # content
    assert {a: "a", b: "b"}[a] == "a" and len({a, b}) == 2


def _draw_stack(data, shape, field):
    n = int(np.prod(shape))
    elems = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    parts = [np.array(data.draw(st.lists(elems, min_size=n, max_size=n)))
             for _ in range(1 if field == "real" else 2)]
    x = parts[0] if field == "real" else parts[0] + 1j * parts[1]
    return x.reshape(shape)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d=st.integers(1, 6), m=st.integers(1, 8),
       field=st.sampled_from(("real", "complex")), data=st.data())
def test_stack_lift_and_hermitize_match_per_item(d, m, field, data):
    a = _draw_stack(data, (m, d), field)
    lifts = lift_rank_one(a)
    assert lifts.shape == (m, d, d)
    for j in range(m):
        ref = np.outer(a[j], a[j].conj())
        if field == "complex":
            ref = 0.5 * (ref + ref.conj().T)
        assert lifts.dtype == ref.dtype and np.array_equal(lifts[j], ref)
        assert np.array_equal(lift_rank_one(a[j]), ref)
    mats = _draw_stack(data, (m, d, d), field)
    herm = hermitize(mats)
    for j in range(m):
        ref = 0.5 * (mats[j] + mats[j].conj().T)
        assert np.array_equal(herm[j], ref)
        assert np.array_equal(hermitize(mats[j]), ref)
        assert np.array_equal(herm[j], herm[j].conj().T)


def test_ensemble_json_round_trip():
    for e in (gen_gaussian_vectors(3, 4, "complex", seed=1),
              gen_hermitian_rank(3, (1, 2), seed=1),
              builtin11_ensemble()):
        doc = ensemble_to_json(e)
        back = ensemble_from_json(doc)
        for a, b in zip(e.operators, back.operators):
            assert np.array_equal(a, b)
        assert jsonio.dumps(ensemble_to_json(back)) == jsonio.dumps(doc)


def test_ensemble_validation():
    with pytest.raises(ValueError):
        MeasurementEnsemble("real", "matrix", 2, [])
    with pytest.raises(ValueError):
        MeasurementEnsemble("real", "matrix", 2, [np.eye(3)])
    with pytest.raises(ValueError):
        MeasurementEnsemble("real", "matrix", 2, [np.eye(2) * 1j])
    with pytest.raises(ValueError):
        MeasurementEnsemble("real", "matrix", 2, [np.eye(2)], ranks=[0])
    with pytest.raises(ValueError):
        MeasurementEnsemble("complex", "matrix", 2,
                            [np.array([[0, 1], [0, 0]], dtype=complex)],
                            hermitian=True)


def test_derived_rng_independent_streams():
    a = derived_rng(0, 1, 2).standard_normal(4)
    b = derived_rng(0, 1, 3).standard_normal(4)
    c = derived_rng(0, 1, 2).standard_normal(4)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)
