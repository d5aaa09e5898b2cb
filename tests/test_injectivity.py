import gc
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from varietyrec import (CERTIFIED_EXACT, INCONCLUSIVE, NO_WITNESS_FOUND,
                        NON_DEGENERATE, REFUTED_WITH_WITNESS,
                        VANISHES_ON_ALL_SAMPLES, MeasurementEnsemble,
                        SearchConfig, VarietySpec, admissibility_probe, apply,
                        builtin11_ensemble, certify, collision_is_distinct,
                        collision_residual, complement_property, corner_skew,
                        dense_sampler, difference_closure,
                        gen_gaussian_matrices, gen_gaussian_vectors,
                        gen_hermitian_rank, lift_ensemble, lift_rank_one,
                        membership, minor_residual, symmetric_sampler,
                        verify_kernel_minor_system, witness_search,
                        witness_to_collision)
from varietyrec import cli, injectivity, jsonio, sampling
from varietyrec.injectivity import (POLISH_STOPS, STOP_REASONS,
                                    _kernel_basis, _minor_objective,
                                    _minor_residual_and_grad,
                                    _search_operators, _search_space,
                                    _sphere_bfgs, _sphere_descent,
                                    _stacked_rows)
from varietyrec.sampling import derived_rng, tau, tau_inverse


def _basis_matrix(d, i, j):
    a = np.zeros((d, d))
    a[i, j] = 1.0
    return a


# ---------------------------------------------------------------------------
# complement property
# ---------------------------------------------------------------------------


def test_complement_property_examples():
    ok, s = complement_property([(1, 0), (0, 1), (1, 1)])
    assert ok and s is None
    ok, s = complement_property([(1, 0), (0, 1)])
    assert not ok and s == (0,)
    rng = np.random.default_rng(0)
    ok, s = complement_property(rng.standard_normal((4, 3)))
    assert not ok and s is not None


def test_complement_property_failing_subset_is_valid():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 4))
    ok, s = complement_property(a)
    assert not ok
    comp = [j for j in range(6) if j not in set(s)]
    assert np.linalg.matrix_rank(a[list(s)]) < 4
    assert np.linalg.matrix_rank(a[comp]) < 4


def test_complement_property_invariances():
    rng = np.random.default_rng(2)
    for trial in range(10):
        a = rng.standard_normal((5, 2))
        base, _ = complement_property(a)
        scale = np.sign(rng.standard_normal(5)) * rng.uniform(0.1, 5.0, 5)
        ok, _ = complement_property(a * scale[:, None])
        assert ok == base
        perm = rng.permutation(5)
        ok, _ = complement_property(a[perm])
        assert ok == base


def _complement_oracle(a):
    """Lexicographically first subset that, like its complement, fails to
    span, by enumerating every subset."""
    m, d = a.shape

    def rank(rows):
        return np.linalg.matrix_rank(a[list(rows)]) if rows else 0

    failing = [s for size in range(m + 1)
               for s in itertools.combinations(range(m), size)
               if rank(s) < d
               and rank([j for j in range(m) if j not in s]) < d]
    return (False, min(failing)) if failing else (True, None)


def test_complement_property_matches_brute_force():
    rng = np.random.default_rng(7)
    for trial in range(120):
        m = int(rng.integers(1, 11))
        d = int(rng.integers(1, 6))
        if trial % 2:
            rank = int(rng.integers(0, d + 1))
            a = (rng.integers(-2, 3, (m, rank))
                 @ rng.integers(-2, 3, (rank, d))).astype(float)
        else:
            a = rng.integers(-1, 2, (m, d)).astype(float)
        assert complement_property(a) == _complement_oracle(a), a


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 12),
       d=st.integers(1, 5), deficient=st.booleans())
# deep frames whose first failing subset lies below a pruned sibling: a
# spanning subset holding 0 and with children, such as (0, 1, 2, 3, 4)
# before (0, 1, 3, 5) at seed 20, m = 11, d = 5
@example(seed=45, m=11, d=4, deficient=True)
@example(seed=7, m=11, d=5, deficient=True)
@example(seed=20, m=11, d=5, deficient=True)
@example(seed=89, m=12, d=5, deficient=True)
def test_complement_property_blocks_do_not_change_the_answer(seed, m, d,
                                                             deficient):
    # small integer and rank-deficient frames have many failing pairs,
    # so with blocks of 1, 2, 5 and 32 subsets (the first block shrinks
    # with _RANK_BLOCK) the first one falls on a block boundary, inside a
    # block, at its end or behind a subtree held back for a later block
    rng = np.random.default_rng(seed)
    if deficient:
        rank = int(rng.integers(0, d + 1))
        a = (rng.integers(-2, 3, (m, rank))
             @ rng.integers(-2, 3, (rank, d))).astype(float)
    else:
        a = rng.integers(-1, 2, (m, d)).astype(float)
    want = complement_property(a)
    assert want == _complement_oracle(a), a
    for block in (1, 2, 5, 32):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(injectivity, "_RANK_BLOCK", block)
            assert complement_property(a) == want, (block, a)


def test_complement_property_guard():
    with pytest.raises(ValueError):
        complement_property(np.ones((25, 2)))
    for bad in (np.nan, np.inf, -np.inf):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        a[0, 1] = bad
        with pytest.raises(ValueError, match="non-finite input"):
            complement_property(a)


@pytest.mark.parametrize("d,m,most", [(8, 14, 64), (7, 12, 64),
                                      (7, 13, 2600)])
def test_complement_property_rank_count(monkeypatch, d, m, most):
    # the search skips the subtrees of spanning subsets and the subsets
    # without index 0, and ranks a few dozen subsets ahead of a
    # refutation; enumerating every subset of size <= m/2 ranks 6,483
    # matrices at d=8, m=14, 1,592 at d=7, m=12 and 4,096 at d=7, m=13
    matrix_rank = np.linalg.matrix_rank
    count = 0

    def counting(x, *args, **kwargs):
        nonlocal count
        x = np.asarray(x)
        count += x.shape[0] if x.ndim == 3 else 1
        return matrix_rank(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "matrix_rank", counting)
    for seed in range(5):
        count = 0
        a = np.stack(gen_gaussian_vectors(d, m, "real", seed=seed).operators)
        ok, _ = complement_property(a)
        assert ok == (m >= 2 * d - 1)
        assert count <= most, (seed, count)


def test_complement_property_leaves_no_reference_cycles():
    # a cycle would keep the search's rank cache alive until a full
    # collection, which raises the peak memory of long runs
    passing = np.stack(gen_gaussian_vectors(7, 13, "real", seed=0).operators)
    refuted = np.stack(gen_gaussian_vectors(8, 14, "real", seed=0).operators)
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            assert complement_property(passing)[0]
        for _ in range(20):
            assert not complement_property(refuted)[0]
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# witness search
# ---------------------------------------------------------------------------


def test_witness_search_single_operator():
    e = MeasurementEnsemble("real", "matrix", 2, [_basis_matrix(2, 0, 0)])
    res = witness_search(e, VarietySpec.low_rank(2, 1, "real"),
                         SearchConfig(restarts=5))
    w = res.witness
    assert w is not None
    assert abs(np.linalg.norm(w.element) - 1.0) <= 1e-10
    assert membership(w.element, VarietySpec.low_rank(2, 1, "real"), 1e-8)
    assert abs(w.element[0, 0]) <= 1e-8  # orthogonal to E11


def test_witness_search_trivial_kernel():
    ops = [_basis_matrix(2, i, j) for i in range(2) for j in range(2)]
    e = MeasurementEnsemble("real", "matrix", 2, ops)
    res = witness_search(e, VarietySpec.low_rank(2, 1, "real"))
    assert res.kernel_dim == 0 and res.witness is None


def test_witness_is_fixed_point_of_both_projections():
    e = gen_gaussian_matrices(4, 11, "complex", seed=1)
    w = VarietySpec.low_rank(4, 2, "complex")
    res = witness_search(e, w, SearchConfig())
    q = res.witness.element
    from varietyrec.varieties import project
    assert np.linalg.norm(project(q, w) - q) <= 1e-8
    # kernel projection: sampling residual is already the kernel distance
    assert np.linalg.norm(apply(e, q).y) <= 1e-8 * res.scale


# seeded certify cases of every search mode, with the status,
# restarts_used and margin recorded from a search that laid complex
# coordinates out in [Re; Im] blocks and read hermitian ones through
# tau_inverse: the answers must not depend on how the coordinates are
# laid out or read.  Each entry is ((source, d, m or ranks, field),
# signal, restarts, max_iters, seed, status, restarts_used, margin); the
# ensemble and the search share the seed
_R, _N = REFUTED_WITH_WITNESS, NO_WITNESS_FOUND
_LR_R, _LR_C = (VarietySpec.low_rank(4, 1, "real"),
                VarietySpec.low_rank(4, 1, "complex"))
_CORPUS = {
    "low_rank_real_m10": (("matrices", 4, 10, "real"), _LR_R, 6, 300, 1,
                          _R, 1, None),
    "low_rank_real_m11": (("matrices", 4, 11, "real"), _LR_R, 6, 300, 2,
                          _N, 6, 0.024261487472521492),
    "low_rank_real_m11_first": (("matrices", 4, 11, "real"), _LR_R, 6, 300,
                                5, _R, 1, None),
    "low_rank_real_m11_second": (("matrices", 4, 11, "real"), _LR_R, 6,
                                 300, 10, _R, 2, None),
    "low_rank_real_m11_third": (("matrices", 4, 11, "real"), _LR_R, 6, 300,
                                29, _R, 3, None),
    "low_rank_real_m12": (("matrices", 4, 12, "real"), _LR_R, 6, 300, 3,
                          _N, 6, 0.07418093493637548),
    "low_rank_complex_m10": (("matrices", 4, 10, "complex"), _LR_C, 4, 300,
                             1, _R, 1, None),
    "low_rank_complex_m11": (("matrices", 4, 11, "complex"), _LR_C, 4, 300,
                             2, _R, 1, None),
    "low_rank_complex_m12": (("matrices", 4, 12, "complex"), _LR_C, 4, 300,
                             3, _N, 4, 0.4424617235710381),
    "low_rank_complex_m12_b": (("matrices", 4, 12, "complex"), _LR_C, 4,
                               300, 4, _N, 4, 0.21905927357042304),
    "sparse_real_m3": (("vectors", 8, 3, "real"), VarietySpec.sparse(8, 2),
                       8, 300, 1, _R, 1, None),
    "sparse_real_m4": (("vectors", 8, 4, "real"), VarietySpec.sparse(8, 2),
                       8, 300, 2, _N, 8, 0.012335778738837884),
    "sparse_real_m5": (("vectors", 8, 5, "real"), VarietySpec.sparse(8, 2),
                       8, 300, 3, _N, 8, 0.04559462626225635),
    "sparse_complex_m3": (("vectors", 8, 3, "complex"),
                          VarietySpec.sparse(8, 2, "complex"), 8, 300, 4,
                          _R, 1, None),
    "sparse_complex_m5": (("vectors", 8, 5, "complex"),
                          VarietySpec.sparse(8, 2, "complex"), 8, 300, 5,
                          _N, 8, 0.5037912745329655),
    "herm_sig_vectors_d3_m6": (("vectors", 3, 6, "complex"),
                               VarietySpec.herm_sig(3), 4, 300, 1, _R, 1,
                               None),
    "herm_sig_vectors_d3_m8": (("vectors", 3, 8, "complex"),
                               VarietySpec.herm_sig(3), 4, 300, 2, _N, 4,
                               0.7880277334680098),
    "herm_sig_vectors_d4_m10": (("vectors", 4, 10, "complex"),
                                VarietySpec.herm_sig(4), 4, 300, 6, _R, 1,
                                None),
    "herm_sig_vectors_d4_m12": (("vectors", 4, 12, "complex"),
                                VarietySpec.herm_sig(4), 4, 300, 9, _N, 4,
                                0.9090754878067352),
    "herm_sig_matrices_d2_m3": (("hermitian", 2, (2, 2, 2), None),
                                VarietySpec.herm_sig(2), 4, 300, 3, _R, 1,
                                None),
    "herm_sig_matrices_d3_m7": (("hermitian", 3, (1, 2, 3, 1, 2, 3, 2), None),
                                VarietySpec.herm_sig(3), 4, 300, 6, _R, 1,
                                None),
    "herm_sig_matrices_d3_m8": (("hermitian", 3, (1, 2, 3, 1, 2, 3, 2, 1),
                                 None), VarietySpec.herm_sig(3), 4, 300, 8,
                                _N, 4, 0.44692626837068883),
    "rank_one_real_d3_m25": (("vectors", 3, 25, "real"),
                             VarietySpec.rank_one_real(3), 3, 200, 1, _N, 3,
                             2.5809718723117263),
    "rank_one_real_d4_m26": (("vectors", 4, 26, "real"),
                             VarietySpec.rank_one_real(4), 3, 200, 2, _N, 3,
                             2.5256147680550116),
    "rank_one_real_lifted_d3_m25": (("lifted", 3, 25, "real"),
                                    VarietySpec.rank_one_real(3), 3, 200, 3,
                                    _N, 3, 2.3568335066795645),
}


def _corpus_ensemble(source, seed):
    kind, d, size, field = source
    if kind == "matrices":
        return gen_gaussian_matrices(d, size, field, seed=seed)
    if kind == "hermitian":
        return gen_hermitian_rank(d, size, seed=seed)
    e = gen_gaussian_vectors(d, size, field, seed=seed)
    return lift_ensemble(e) if kind == "lifted" else e


@pytest.mark.parametrize("name", sorted(_CORPUS))
def test_certify_answers_are_preserved(name):
    (source, signal, restarts, max_iters, seed, status, used,
     margin) = _CORPUS[name]
    e = _corpus_ensemble(source, seed)
    cfg = SearchConfig(restarts=restarts, max_iters=max_iters, seed=seed)
    v = certify(e, signal, cfg)
    assert (v.status, v.restarts_used) == (status, used)
    if margin is None:
        assert v.margin is None
    else:
        assert abs(v.margin - margin) <= 1e-9 * margin
    if status == REFUTED_WITH_WITNESS:
        w = difference_closure(signal)
        scale = _search_space(_search_operators(e, w), w)[2]
        assert v.witness.residual <= cfg.tol_feas * scale
        x, y = v.collision
        assert collision_residual(e, signal, x, y) <= 1e-12 * scale
        assert collision_is_distinct(x, y, signal)


def _block_start(e, w, seed, ridx):
    """A restart's unit start in the [Re; Im] block layout, read as an
    ambient array."""
    mode = injectivity._variety_mode(w)
    basis, _ = _kernel_basis(_stacked_rows(e.operators, mode))
    rng = derived_rng(seed, injectivity._STREAM_RESTART, ridx)
    x = basis @ rng.standard_normal(basis.shape[1])
    x = x / np.linalg.norm(x)
    shape = w.ambient_shape()
    if mode == "complex":
        n = x.size // 2
        return (x[:n] + 1j * x[n:]).reshape(shape)
    if mode == "hermitian":
        return tau(x.reshape(shape))
    return x.reshape(shape)


@pytest.mark.parametrize("e,w", [
    (gen_gaussian_matrices(4, 12, "complex", seed=3),
     VarietySpec.low_rank(4, 2, "complex")),
    (gen_gaussian_vectors(8, 5, "complex", seed=5),
     VarietySpec.sparse(8, 4, "complex")),
    (gen_gaussian_matrices(4, 12, "real", seed=3),
     VarietySpec.low_rank(4, 2, "real")),
    (lift_ensemble(gen_gaussian_vectors(4, 12, "complex", seed=9)),
     VarietySpec.herm_sig(4)),
])
def test_search_starts_are_the_block_layout_starts(monkeypatch, e, w):
    # one iteration per restart: each projection input is a unit start
    seen = []
    kernel = injectivity._projection

    def spy(w):
        project_w = kernel(w)

        def recorded(x, w):
            seen.append(x.copy())
            return project_w(x, w)
        return recorded

    monkeypatch.setattr(injectivity, "_projection", spy)
    res = witness_search(e, w, SearchConfig(restarts=5, max_iters=1, seed=7))
    assert res.witness is None and len(seen) == 5
    for ridx, x in enumerate(seen):
        np.testing.assert_allclose(x, _block_start(e, w, 7, ridx),
                                   rtol=0, atol=1e-15)


def test_search_coordinates_share_memory_with_the_ambient_array():
    cases = [(gen_gaussian_matrices(4, 12, "complex", seed=3),
              VarietySpec.low_rank(4, 2, "complex")),
             (gen_gaussian_vectors(8, 5, "complex", seed=5),
              VarietySpec.sparse(8, 4, "complex")),
             (gen_gaussian_matrices(4, 12, "real", seed=3),
              VarietySpec.low_rank(4, 2, "real"))]
    rng = np.random.default_rng(0)
    for e, w in cases:
        rows, basis, _, ambient, coords = _search_space(e.operators, w)
        x = basis @ rng.standard_normal(basis.shape[1])
        a = ambient(x)
        assert a.shape == w.ambient_shape() and np.shares_memory(a, x)
        assert coords(a) is not x and np.shares_memory(coords(a), x)
        assert np.array_equal(coords(a), x)
        # the complex view interleaves Re and Im of each entry
        if w.field == "complex":
            assert np.array_equal(x[0::2], a.real.ravel())
            assert np.array_equal(x[1::2], a.imag.ravel())
        # the rows read the samples off the coordinates
        y = apply(e, a).y
        want = np.stack([y.real, y.imag], axis=1).ravel()
        if w.field == "real":
            want = y.real
        np.testing.assert_allclose(rows @ x, want, atol=1e-12)


def test_search_realification_is_tau_bit_for_bit():
    rng = np.random.default_rng(1)
    for d in range(1, 7):
        for _ in range(50):
            a = rng.standard_normal((d, d)) * 10.0 ** rng.integers(-8, 9)
            h = sampling._tau(a)
            assert h.dtype == np.complex128
            # tau written out: (a + a^T) / 2 + i (a - a^T) / 2
            assert np.array_equal(h, 0.5 * (a + a.T) + 1j * (0.5 * (a - a.T)))
            assert np.array_equal(h, tau(a))
            assert np.array_equal(h, h.conj().T)


def test_search_stop_counts_sum_to_the_restarts_run():
    cases = [(gen_gaussian_matrices(4, 11, "complex", seed=2),
              VarietySpec.low_rank(4, 2, "complex"), SearchConfig()),
             (gen_gaussian_matrices(4, 12, "complex", seed=3),
              VarietySpec.low_rank(4, 2, "complex"),
              SearchConfig(restarts=4, max_iters=300)),
             (gen_gaussian_vectors(8, 4, "real", seed=2),
              VarietySpec.sparse(8, 4), SearchConfig(restarts=6)),
             (gen_gaussian_matrices(4, 12, "real", seed=3),
              VarietySpec.low_rank(4, 2, "real"),
              SearchConfig(restarts=3, max_iters=2)),
             (gen_hermitian_rank(2, (2, 2, 2), seed=3),
              VarietySpec.herm_sig(2), SearchConfig(restarts=4))]
    seen = set()
    for e, w, cfg in cases:
        res = witness_search(e, w, cfg)
        assert tuple(res.stops) == STOP_REASONS
        assert sum(res.stops.values()) == res.restarts_used
        assert res.stops["feasible"] == (res.witness is not None)
        seen.update(k for k, n in res.stops.items() if n)
    assert {"feasible", "fixed_point", "budget"} <= seen
    # the projection onto 0-sparse vectors is zero: every restart stops
    res = witness_search(gen_gaussian_vectors(4, 2, "real", seed=0),
                         VarietySpec.sparse(4, 0), SearchConfig(restarts=3))
    assert res.stops["zero_norm"] == 3 == res.restarts_used
    assert res.margin == math.inf
    ops = [_basis_matrix(2, i, j) for i in range(2) for j in range(2)]
    res = witness_search(MeasurementEnsemble("real", "matrix", 2, ops),
                         VarietySpec.low_rank(2, 1, "real"))
    assert res.restarts_used == 0 and sum(res.stops.values()) == 0


def test_search_refuses_non_finite_projection_input(monkeypatch):
    e = gen_gaussian_matrices(4, 12, "complex", seed=3)
    w = VarietySpec.low_rank(4, 2, "complex")
    # a non-finite projection makes the next kernel step non-finite
    monkeypatch.setattr(injectivity, "_projection",
                        lambda w: lambda x, w: np.full_like(x, np.nan))
    with pytest.raises(ValueError, match="non-finite input"):
        witness_search(e, w, SearchConfig(restarts=2))
    monkeypatch.undo()
    # and a non-finite start is refused before the first projection
    kernel_basis = injectivity._kernel_basis

    def broken(rows):
        basis, scale = kernel_basis(rows)
        basis[0, 0] = np.inf
        return basis, scale

    monkeypatch.setattr(injectivity, "_kernel_basis", broken)
    with pytest.raises(ValueError, match="non-finite input"):
        witness_search(e, w, SearchConfig(restarts=2))


@pytest.mark.parametrize("field,value", [
    ("tol_feas", math.inf), ("tol_feas", math.nan), ("tol_feas", 0.0),
    ("tol_feas", -1.0), ("margin_threshold", math.inf),
    ("margin_threshold", math.nan), ("margin_threshold", -1e-6),
    ("max_iters", -1), ("restarts", -1)])
def test_search_config_rejects_unusable_settings(field, value):
    with pytest.raises(ValueError, match=field):
        SearchConfig(**{field: value})


def test_search_config_keeps_the_empty_budget():
    # restarts=0 and a zero margin threshold are settings, not errors
    cfg = SearchConfig(restarts=0, max_iters=0, margin_threshold=0.0)
    v = certify(gen_gaussian_matrices(4, 12, "complex", seed=1),
                VarietySpec.low_rank(4, 1, "complex"), cfg)
    assert v.status == INCONCLUSIVE and v.margin is None


def _failing_finisher(calls):
    """A stand-in for ``injectivity._finisher`` whose finish always
    fails, counting its calls in ``calls``."""
    def finisher(*args):
        def finish(q0):
            calls.append(q0)
            return None, math.inf, 0
        return finish
    return finisher


def _certify_searches(monkeypatch, cases):
    """The SearchResult of every witness search that certify runs on the
    ``(e, signal, cfg)`` cases, in order, with their verdicts."""
    results = []
    search = injectivity._witness_search

    def recorded(*args):
        results.append(search(*args))
        return results[-1]

    monkeypatch.setattr(injectivity, "_witness_search", recorded)
    verdicts = [certify(e, signal, cfg) for e, signal, cfg in cases]
    monkeypatch.setattr(injectivity, "_witness_search", search)
    return results, verdicts


def test_no_witness_searches_do_not_depend_on_the_finish(monkeypatch):
    """A finish that fails leaves the projections as they were: on every
    search that finds no witness, a finish that always fails gives the
    same margin, restarts and stops, bit for bit."""
    cases = [(_corpus_ensemble(source, seed), signal,
              SearchConfig(restarts=restarts, max_iters=max_iters, seed=seed))
             for (source, signal, restarts, max_iters, seed, status, _,
                  _) in _CORPUS.values() if status == NO_WITNESS_FOUND]
    cases.append((builtin11_ensemble(), VarietySpec.low_rank(4, 1, "real"),
                  SearchConfig()))
    real, verdicts = _certify_searches(monkeypatch, cases)
    assert all(v.status == NO_WITNESS_FOUND for v in verdicts)
    # the real runs try finishes, and every one of them fails
    assert sum(r.finish_attempts for r in real) > 0
    calls = []
    monkeypatch.setattr(injectivity, "_finisher", _failing_finisher(calls))
    stubbed, _ = _certify_searches(monkeypatch, cases)
    assert len(calls) == sum(r.finish_attempts for r in real)
    for a, b in zip(real, stubbed, strict=True):
        assert (a.margin, a.restarts_used, a.stops) == (
            b.margin, b.restarts_used, b.stops)
        assert a.witness is None and b.witness is None


def test_projections_still_refute_when_the_finish_fails(monkeypatch):
    e = gen_gaussian_matrices(4, 11, "complex", seed=1)
    signal = VarietySpec.low_rank(4, 1, "complex")
    cfg = SearchConfig(seed=1, max_iters=2000)
    finished = certify(e, signal, cfg)
    calls = []
    monkeypatch.setattr(injectivity, "_finisher", _failing_finisher(calls))
    (res,), (v,) = _certify_searches(monkeypatch, [(e, signal, cfg)])
    assert calls and res.finish_attempts == len(calls)
    assert res.finish_steps == 0
    assert v.status == REFUTED_WITH_WITNESS
    # the projections take many more iterations than the finish did
    assert v.witness.iterations == res.iterations > finished.iterations
    _assert_refutation(e, signal, cfg, v)


def test_each_restart_runs_its_budget_and_no_more(monkeypatch):
    """builtin11 is injective, so both restarts run their 500 projections
    to the end."""
    cfg = SearchConfig(restarts=2, seed=0)
    (res,), (v,) = _certify_searches(
        monkeypatch, [(builtin11_ensemble(),
                       VarietySpec.low_rank(4, 1, "real"), cfg)])
    assert v.status == NO_WITNESS_FOUND
    assert v.iterations == res.iterations == 2 * cfg.max_iters
    assert res.stops["budget"] == 2 == res.restarts_used


# injective ensembles (builtin11, and generic Gaussian ones at the
# paper's counts), so a search on them finds no witness
_NO_WITNESS = {
    "builtin11": (lambda seed: builtin11_ensemble(), _LR_R),
    "low_rank_complex_m12": (
        lambda seed: gen_gaussian_matrices(4, 12, "complex", seed=seed),
        _LR_C),
    "sparse_m4": (lambda seed: gen_gaussian_vectors(8, 4, "real", seed=seed),
                  VarietySpec.sparse(8, 2)),
}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=st.sampled_from(sorted(_NO_WITNESS)), seed=st.integers(0, 2 ** 16),
       restarts=st.integers(1, 3), max_iters=st.integers(1, 150))
def test_no_witness_searches_spend_a_fixed_budget(case, seed, restarts,
                                                  max_iters):
    """Each restart's iterates are a prefix of those it runs on a larger
    budget: doubling the budget keeps the restarts and never raises the
    margin."""
    generate, signal = _NO_WITNESS[case]
    e, w = generate(seed), difference_closure(signal)
    res, longer = (witness_search(e, w, SearchConfig(
        restarts=restarts, max_iters=n, seed=seed))
        for n in (max_iters, 2 * max_iters))
    assert res.witness is None and longer.witness is None
    assert res.iterations <= restarts * max_iters
    assert longer.restarts_used == res.restarts_used
    assert longer.margin <= res.margin


def test_finish_counters():
    e = gen_gaussian_matrices(4, 11, "complex", seed=2)
    w = VarietySpec.low_rank(4, 2, "complex")
    first, again = (witness_search(e, w, SearchConfig(seed=3))
                    for _ in range(2))
    assert first.witness is not None
    assert (first.finish_attempts, first.finish_steps) == (
        again.finish_attempts, again.finish_steps)
    assert 1 <= first.finish_attempts and 1 <= first.finish_steps <= (
        first.finish_attempts * injectivity._FINISH_STEPS)
    # the witness's count holds the steps of its finish, the search's the
    # projections of every restart run as well
    assert first.witness.iterations <= first.iterations
    # a sparse finish is a null vector, with no steps
    res = witness_search(gen_gaussian_vectors(8, 3, "real", seed=1),
                         VarietySpec.sparse(8, 4), SearchConfig(seed=1))
    assert res.witness is not None
    assert res.finish_attempts >= 1 and res.finish_steps == 0
    # a restart that never comes close tries no finish
    res = witness_search(e, w, SearchConfig(restarts=2, max_iters=1))
    assert (res.finish_attempts, res.finish_steps) == (0, 0)


def _search_scale(e, signal):
    lifted = e.shape == "vector" and signal.kind == "herm_sig"
    e_search = lift_ensemble(e) if lifted else e
    w = difference_closure(signal)
    return e_search, _search_space(_search_operators(e, w), w)[2]


def _assert_refutation(e, signal, cfg, v):
    """``v`` refutes with a unit witness on the difference variety whose
    samples vanish, and a distinct collision pair."""
    assert v.status == REFUTED_WITH_WITNESS
    e_search, scale = _search_scale(e, signal)
    q = v.witness.element
    assert abs(np.linalg.norm(q) - 1.0) <= 1e-12
    assert membership(q, difference_closure(signal))
    assert v.witness.residual <= cfg.tol_feas * scale
    assert np.linalg.norm(apply(e_search, q).y) <= cfg.tol_feas * scale
    x, y = v.collision
    assert collision_residual(e, signal, x, y) <= 1e-12 * scale
    assert collision_is_distinct(x, y, signal)


# each refutable case: its signal variety, the generator and field of
# its ensemble, and the largest m at which every such ensemble is
# non-injective; m is drawn downward from there, so hypothesis starts at
# the hardest count
_REFUTABLE = {
    "low_rank_complex": (_LR_C, gen_gaussian_matrices, "complex", 11),
    "low_rank_real": (_LR_R, gen_gaussian_matrices, "real", 10),
    "low_rank_real_on_complex": (_LR_R, gen_gaussian_matrices, "complex", 5),
    "sparse_real": (VarietySpec.sparse(8, 2), gen_gaussian_vectors, "real",
                    3),
    "sparse_complex": (VarietySpec.sparse(8, 2, "complex"),
                       gen_gaussian_vectors, "complex", 3),
}


@pytest.mark.parametrize("case", sorted(_REFUTABLE))
@settings(max_examples=15, deadline=None, derandomize=True)
@given(below=st.integers(0, 4), seed=st.integers(0, 2 ** 16))
def test_refutations_are_witnessed(case, below, seed):
    signal, generate, field, top = _REFUTABLE[case]
    e = generate(signal.d, max(top - below, 1), field, seed=seed)
    cfg = SearchConfig(restarts=20, seed=seed)
    _assert_refutation(e, signal, cfg, certify(e, signal, cfg))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(d=st.integers(4, 5), below=st.integers(0, 5),
       seed=st.integers(0, 2 ** 16))
def test_herm_sig_refutations_on_vectors(d, below, seed):
    e = gen_gaussian_vectors(d, 2 * d - 2 - below, "complex", seed=seed)
    cfg = SearchConfig(restarts=20, seed=seed)
    signal = VarietySpec.herm_sig(d)
    _assert_refutation(e, signal, cfg, certify(e, signal, cfg))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(), d=st.integers(2, 4), seed=st.integers(0, 2 ** 16))
def test_herm_sig_refutations_on_hermitian_matrices(data, d, seed):
    m = 2 * d - 2 - data.draw(st.integers(0, 2 * d - 3))
    ranks = data.draw(st.lists(st.integers(1, d), min_size=m, max_size=m))
    e = gen_hermitian_rank(d, ranks, seed=seed)
    cfg = SearchConfig(restarts=20, seed=seed)
    signal = VarietySpec.herm_sig(d)
    _assert_refutation(e, signal, cfg, certify(e, signal, cfg))


# ---------------------------------------------------------------------------
# certify dispatch
# ---------------------------------------------------------------------------


def test_certify_full_basis_exact():
    ops = [_basis_matrix(2, i, j) for i in range(2) for j in range(2)]
    e = MeasurementEnsemble("real", "matrix", 2, ops)
    v = certify(e, VarietySpec.low_rank(2, 1, "real"))
    assert v.status == CERTIFIED_EXACT


def test_certify_sparse_undersampled_refuted():
    e = gen_gaussian_vectors(8, 3, "real", seed=0)
    signal = VarietySpec.sparse(8, 2)
    v = certify(e, signal)
    assert v.status == REFUTED_WITH_WITNESS
    w = v.witness
    assert np.count_nonzero(w.element) <= 4
    assert membership(w.element, difference_closure(signal), 1e-8)
    x, y = v.collision
    assert np.count_nonzero(x) <= 2 and np.count_nonzero(y) <= 2
    assert collision_residual(e, signal, x, y) <= 1e-8
    assert collision_is_distinct(x, y, signal)


def test_certify_full_space_difference_uses_rank():
    # 2k >= d: differences fill the ambient space, decided exactly
    e = gen_gaussian_vectors(4, 4, "real", seed=1)
    v = certify(e, VarietySpec.sparse(4, 2))
    assert v.status == CERTIFIED_EXACT
    e = gen_gaussian_vectors(4, 3, "real", seed=1)
    v = certify(e, VarietySpec.sparse(4, 2))
    assert v.status == REFUTED_WITH_WITNESS
    x, y = v.collision
    assert collision_residual(e, VarietySpec.sparse(4, 2), x, y) <= 1e-8


def test_certify_trivial_kernel_after_the_search():
    """Outside the full-space and complement cases, a trivial kernel is
    certified exactly before the first restart."""
    cases = ((gen_gaussian_matrices(3, 18, "complex", seed=1),
              VarietySpec.low_rank(3, 1)),
             (lift_ensemble(gen_gaussian_vectors(2, 4, "complex", seed=1)),
              VarietySpec.herm_sig(2)))
    for e, signal in cases:
        v = certify(e, signal)
        assert v.status == CERTIFIED_EXACT
        assert v.restarts_used == 0 and v.iterations == 0
        assert v.witness is None and v.collision is None
        assert v.tolerances == SearchConfig().tolerances()


def test_certify_real_pr_complement_paths():
    e = gen_gaussian_vectors(3, 5, "real", seed=2)  # m = 2d-1
    assert certify(e, VarietySpec.rank_one_real(3)).status == CERTIFIED_EXACT
    e4 = gen_gaussian_vectors(3, 4, "real", seed=2)  # m = 2d-2
    v = certify(e4, VarietySpec.rank_one_real(3))
    assert v.status == REFUTED_WITH_WITNESS
    assert v.witness.residual <= 1e-8
    x, y = v.collision
    assert collision_residual(e4, VarietySpec.rank_one_real(3), x, y) <= 1e-8
    assert collision_is_distinct(x, y, VarietySpec.rank_one_real(3))
    # lifted rank-one matrix ensembles take the same exact path
    assert certify(lift_ensemble(e),
                   VarietySpec.rank_one_real(3)).status == CERTIFIED_EXACT


@pytest.mark.parametrize("field,signal", [
    ("real", VarietySpec.rank_one_real(4)), ("real", VarietySpec.herm_sig(4)),
    ("complex", VarietySpec.herm_sig(4))])
def test_collision_residual_on_vectors_samples_as_the_lifted_ensemble(
        field, signal):
    e = gen_gaussian_vectors(4, 9, field, seed=5)
    x, y = gen_gaussian_vectors(4, 2, field, seed=6).operators
    lx, ly = lift_rank_one(x), lift_rank_one(y)
    if signal.kind == "rank_one_real":
        lx, ly = lx.real, ly.real
    lifted = lift_ensemble(e)
    want = float(np.linalg.norm(apply(lifted, lx).y - apply(lifted, ly).y))
    assert want > 0
    assert collision_residual(e, signal, x, y) == want


def test_certify_hermitian_small_case():
    # at m = 3 < 4d-4 = 4 most draws are refuted, and the refutation is sound
    e = gen_hermitian_rank(2, (2, 2, 2), seed=3)
    v = certify(e, VarietySpec.herm_sig(2), SearchConfig(restarts=50))
    assert v.status == REFUTED_WITH_WITNESS
    x, y = v.collision
    assert collision_residual(e, VarietySpec.herm_sig(2), x, y) <= 1e-8
    assert collision_is_distinct(x, y, VarietySpec.herm_sig(2))
    # ... but injective triples exist: the Pauli-style frame separates lifts
    pauli = [np.array([[0, 1], [1, 0]], dtype=complex),
             np.array([[0, -1j], [1j, 0]]),
             np.array([[1, 0], [0, -1]], dtype=complex)]
    ep = MeasurementEnsemble("complex", "matrix", 2, pauli, hermitian=True)
    vp = certify(ep, VarietySpec.herm_sig(2), SearchConfig(restarts=50))
    assert vp.status == NO_WITNESS_FOUND and vp.margin > 1e-6


def test_certify_matches_complement_property_on_rank_one_lifts():
    # witness existence on the lifted search agrees with the exact test
    rng = np.random.default_rng(4)
    for trial in range(20):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(2 * d - 2, 2 * d + 3))
        seed = int(rng.integers(10 ** 6))
        e = gen_gaussian_vectors(d, m, "real", seed=seed)
        ok, _ = complement_property(np.stack(e.operators))
        res = witness_search(lift_ensemble(e), VarietySpec.rank_one_real(d),
                             SearchConfig(restarts=60))
        assert (res.witness is None) == ok


def _search_fields(res):
    """Every field of a SearchResult, the witness element as its bytes."""
    w = res.witness
    witness = None if w is None else (w.element.dtype, w.element.tobytes(),
                                      w.residual, w.restart, w.iterations)
    return (witness, res.margin, res.restarts_used, res.iterations,
            res.kernel_dim, res.scale, res.stops, res.finish_attempts,
            res.finish_steps)


@pytest.mark.parametrize("e,w", [
    (gen_gaussian_vectors(4, 8, "complex", seed=2), VarietySpec.herm_sig(4)),
    (gen_gaussian_vectors(3, 8, "complex", seed=1), VarietySpec.herm_sig(3)),
    (gen_gaussian_vectors(3, 6, "real", seed=1), VarietySpec.herm_sig(3)),
    (gen_gaussian_vectors(3, 4, "real", seed=2),
     VarietySpec.rank_one_real(3)),
    (gen_gaussian_vectors(3, 26, "real", seed=1),
     VarietySpec.rank_one_real(3))])
def test_witness_search_reads_a_vector_ensemble_as_its_lift(e, w):
    cfg = SearchConfig(restarts=20, max_iters=200, seed=1)
    assert _search_fields(witness_search(e, w, cfg)) == _search_fields(
        witness_search(lift_ensemble(e), w, cfg))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data(), herm=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_certify_reads_a_vector_ensemble_as_its_lift(data, herm, seed):
    # rank_one_real at m <= 24 takes the complement property, on the
    # vectors or on a frame extracted from their lifts, so the two
    # witnesses need not agree there
    if herm:
        d = data.draw(st.integers(2, 4))
        m = data.draw(st.integers(1, 4 * d))
        field = data.draw(st.sampled_from(("real", "complex")))
        signal = VarietySpec.herm_sig(d)
    else:
        d = data.draw(st.integers(2, 3))
        m = data.draw(st.integers(25, 30))
        field = "real"
        signal = VarietySpec.rank_one_real(d)
    e = gen_gaussian_vectors(d, m, field, seed=seed)
    cfg = SearchConfig(restarts=4, max_iters=100, seed=seed)
    texts = [jsonio.dumps(cli._verdict_json(certify(x, signal, cfg)))
             for x in (e, lift_ensemble(e))]
    assert texts[0] == texts[1]


def test_certify_rejects_non_signal_variety():
    # a kind with no signal set, such as the retired sym_low_rank, is
    # refused by the spec before certify can run on it
    e = gen_gaussian_matrices(3, 2, "complex", seed=0)
    with pytest.raises(ValueError, match="unknown kind"):
        certify(e, VarietySpec("sym_low_rank", 3, 1, "complex"))


def test_certify_rejects_mismatched_size():
    vectors = gen_gaussian_vectors(4, 7, "real", seed=0)
    cases = [(vectors, VarietySpec.rank_one_real(3)),
             (lift_ensemble(vectors), VarietySpec.rank_one_real(3)),
             (gen_gaussian_vectors(4, 7, "complex", seed=0),
              VarietySpec.herm_sig(3)),
             (gen_gaussian_matrices(4, 7, "real", seed=0),
              VarietySpec.low_rank(3, 1, "real")),
             (vectors, VarietySpec.low_rank(4, 1, "real"))]
    for e, signal in cases:
        with pytest.raises(ValueError, match="does not match"):
            certify(e, signal)


def test_certify_rank_one_real_refuses_complex_ensembles():
    # the real quadratic lift reads real operators; taking the real part
    # of complex ones certified a different map (this ensemble was
    # refuted by a pair whose samples differ by 9.6)
    for e in (gen_gaussian_matrices(3, 3, "complex", seed=1),
              lift_ensemble(gen_gaussian_vectors(3, 5, "complex", seed=1)),
              gen_gaussian_vectors(3, 5, "complex", seed=1)):
        with pytest.raises(ValueError, match="needs a real ensemble"):
            certify(e, VarietySpec.rank_one_real(3))


def test_herm_sig_witnesses_are_exactly_hermitian():
    for seed in range(1, 6):
        e = gen_gaussian_vectors(5, 8, "complex", seed=seed)
        verdict = certify(e, VarietySpec.herm_sig(5),
                          SearchConfig(restarts=20, seed=seed))
        assert verdict.status == REFUTED_WITH_WITNESS
        q = verdict.witness.element
        assert np.array_equal(q, q.conj().T)


def test_certify_herm_sig_rejects_non_hermitian_operators():
    e = gen_gaussian_matrices(3, 6, "complex", seed=0)
    with pytest.raises(ValueError,
                       match="herm_sig search needs Hermitian operators"):
        certify(e, VarietySpec.herm_sig(3))
    # the rule is relative to each operator's norm: one operator of a
    # Hermitian ensemble moved off by 1e-9 or 1e-11 of its norm
    ops = list(gen_hermitian_rank(3, (2,) * 6, seed=1).operators)
    for rel, refused in ((1e-9, True), (1e-11, False)):
        for scale in (1.0, 1e6):
            moved = [op * scale for op in ops]
            bump = np.zeros((3, 3), dtype=complex)
            bump[0, 1] = rel * np.linalg.norm(moved[4])
            moved[4] = moved[4] + bump
            e = MeasurementEnsemble("complex", "matrix", 3, moved)
            if refused:
                with pytest.raises(ValueError, match="needs Hermitian"):
                    witness_search(e, VarietySpec.herm_sig(3))
            else:
                witness_search(e, VarietySpec.herm_sig(3),
                               SearchConfig(restarts=1, max_iters=5))


def _bumped(a, rel):
    """``a`` with entry (0, 1) moved by ``rel`` times its Frobenius norm."""
    out = np.array(a)
    out[0, 1] += rel * np.linalg.norm(a)
    return out


def test_one_hermitian_rule_at_every_scale():
    """The hermitian flag, the herm_sig search, rank-one frame extraction
    and tau_inverse all accept an operator moved off Hermitian by 1e-12
    of its norm and refuse one moved by 1e-9, at every operator scale."""
    herm = gen_hermitian_rank(3, (2,) * 6, seed=1).operators
    lifts = lift_ensemble(gen_gaussian_vectors(3, 6, "real", seed=1)).operators
    for scale, rel in itertools.product((1e-8, 1.0, 1e8), (1e-12, 1e-9)):
        h = [op * scale for op in herm]
        s = [op * scale for op in lifts]
        h[4], s[4] = _bumped(h[4], rel), _bumped(s[4], rel)
        consumers = [
            lambda: MeasurementEnsemble("complex", "matrix", 3, h,
                                        hermitian=True),
            lambda: MeasurementEnsemble("real", "matrix", 3, s,
                                        hermitian=True),
            lambda: witness_search(
                MeasurementEnsemble("complex", "matrix", 3, h),
                VarietySpec.herm_sig(3), SearchConfig(restarts=1, max_iters=5)),
            lambda: tau_inverse(h[4])]
        frame = injectivity._rank_one_vectors(
            MeasurementEnsemble("real", "matrix", 3, s))
        if rel < 1e-10:
            for consume in consumers:
                consume()
            assert frame is not None
        else:
            for consume in consumers:
                with pytest.raises(ValueError, match="Hermitian"):
                    consume()
            assert frame is None


# ---------------------------------------------------------------------------
# witness -> collision
# ---------------------------------------------------------------------------


def test_witness_to_collision_examples():
    q = np.diag([1.0, -1.0]) / math.sqrt(2)
    x, y = witness_to_collision(q, VarietySpec.low_rank(2, 1, "real"))
    assert np.allclose(x, _basis_matrix(2, 0, 0) / math.sqrt(2))
    assert np.allclose(y, _basis_matrix(2, 1, 1) / math.sqrt(2))
    assert np.allclose(x - y, q)

    qh = (lift_rank_one(np.array([1.0, 0.0]))
          - lift_rank_one(np.array([0.0, 1.0]))) / math.sqrt(2)
    x, y = witness_to_collision(qh, VarietySpec.herm_sig(2))
    want = 2.0 ** -0.25
    assert np.allclose(x, [want, 0.0])
    assert np.allclose(y, [0.0, want])

    qs = np.array([1.0, 0.0, -1.0, 0.0]) / math.sqrt(2)
    x, y = witness_to_collision(qs, VarietySpec.sparse(4, 1))
    assert np.allclose(x, [1 / math.sqrt(2), 0, 0, 0])
    assert np.allclose(y, [0, 0, 1 / math.sqrt(2), 0])


def test_witness_to_collision_rank_one_real_identity():
    rng = np.random.default_rng(5)
    u = rng.standard_normal(4)
    v = rng.standard_normal(4)
    q = np.outer(u, v)
    q /= np.linalg.norm(q)
    x, y = witness_to_collision(q, VarietySpec.rank_one_real(4))
    assert np.allclose(0.25 * np.outer(x - y, x + y), q)


def test_witness_to_collision_zero_rejected():
    with pytest.raises(ValueError):
        witness_to_collision(np.zeros(4), VarietySpec.sparse(4, 1))
    with pytest.raises(ValueError, match="zero witness"):
        witness_to_collision(np.zeros((3, 3)), VarietySpec.low_rank(3, 1))


# ---------------------------------------------------------------------------
# minor residual and the kernel polynomial system
# ---------------------------------------------------------------------------


def test_minor_residual_examples():
    assert minor_residual(np.diag([1.0, 0.0, 0.0, 0.0]), 1) == 0.0
    assert minor_residual(np.eye(2), 1) == 1.0
    # a 4 x 4 matrix has exactly 16 = C(4,3)^2 minors of size 3
    q = np.arange(16, dtype=float).reshape(4, 4) + np.eye(4)
    brute = 0.0
    for rows in itertools.combinations(range(4), 3):
        for cols in itertools.combinations(range(4), 3):
            brute += np.linalg.det(q[np.ix_(rows, cols)]) ** 2
    assert abs(minor_residual(q, 2) - brute) <= 1e-9 * max(1.0, brute)


def test_minor_gradient_matches_cofactor_expansion():
    rng = np.random.default_rng(8)
    for d in range(1, 7):
        for size in range(1, d + 2):  # size d + 1: no minors, all zero
            q = rng.standard_normal((d, d))
            f_want = 0.0
            g_want = np.zeros((d, d))
            for rows in itertools.combinations(range(d), size):
                for cols in itertools.combinations(range(d), size):
                    sub = q[np.ix_(rows, cols)]
                    det = np.linalg.det(sub)
                    f_want += det ** 2
                    for i in range(size):
                        for j in range(size):
                            minor = np.delete(np.delete(sub, i, 0), j, 1)
                            g_want[rows[i], cols[j]] += (
                                2.0 * det * (-1) ** (i + j)
                                * np.linalg.det(minor))
            f, g = _minor_residual_and_grad(q, size - 1)
            assert g.dtype == np.float64
            assert abs(f - f_want) <= 1e-12 * max(1.0, f_want), (d, size)
            assert np.allclose(g, g_want, rtol=1e-10,
                               atol=1e-12 * max(1.0, np.abs(g_want).max()))


def test_minor_residual_matches_rank_membership():
    rng = np.random.default_rng(6)
    for case in range(200):
        d = int(rng.integers(2, 6))
        r = int(rng.integers(0, d))
        rank = int(rng.integers(0, d + 1))
        x = (rng.standard_normal((d, rank)) @ rng.standard_normal((rank, d))
             if rank else np.zeros((d, d)))
        res = minor_residual(x, r)
        member = membership(x, VarietySpec.low_rank(d, r, "real"), 1e-10)
        assert (res <= 1e-16 * max(1.0, np.linalg.norm(x) ** (2 * r + 2))) == member


def test_verify_kernel_minor_system_sentinel():
    ops = [_basis_matrix(4, i, j) for i in range(4) for j in range(4)]
    e = MeasurementEnsemble("real", "matrix", 4, ops)
    res = verify_kernel_minor_system(e, restarts=3)
    assert res.min_residual == math.inf and res.argmin is None


def test_verify_kernel_minor_system_finds_existing_witness():
    # random real 11-matrix draws often do have a bounded-rank kernel
    # element; the polynomial system must locate it when one exists
    for seed in range(20):
        e = gen_gaussian_matrices(4, 11, "real", seed=seed)
        found = witness_search(e, VarietySpec.low_rank(4, 2, "real"),
                               SearchConfig(restarts=60))
        if found.witness is not None:
            res = verify_kernel_minor_system(e, restarts=80)
            assert res.min_residual < 1e-10
            assert abs(np.linalg.norm(res.argmin) - 1.0) <= 1e-8
            return
    raise AssertionError("no witness-carrying draw in 20 seeds")


def test_minor_polish_stops_at_the_residual_floor(monkeypatch):
    # seed 3 has a rank-2 kernel element; its polish used to backtrack at
    # the roundoff floor for about 76,000 residual evaluations
    calls = []

    def counted(q, r):
        calls.append(q.shape)
        return _minor_residual_and_grad(q, r)

    monkeypatch.setattr(injectivity, "_minor_residual_and_grad", counted)
    e = gen_gaussian_matrices(4, 11, "real", seed=3)
    res = verify_kernel_minor_system(e, restarts=80)
    assert res.min_residual <= injectivity._RESIDUAL_FLOOR
    assert len(calls) < 5000


def test_minor_residual_complex_matches_brute_force():
    rng = np.random.default_rng(11)
    for d in range(1, 6):
        q = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for size in range(1, d + 2):  # size d + 1: no minors, zero
            brute = 0.0
            for rows in itertools.combinations(range(d), size):
                for cols in itertools.combinations(range(d), size):
                    brute += abs(np.linalg.det(q[np.ix_(rows, cols)])) ** 2
            got = minor_residual(q, size - 1)
            assert abs(got - brute) <= 1e-12 * max(1.0, brute), (d, size)


def test_minor_residual_and_grad_on_a_stack():
    rng = np.random.default_rng(12)
    for d in range(1, 6):
        for r in range(d + 1):
            q = rng.standard_normal((3, d, d))
            f, g = _minor_residual_and_grad(q, r)
            assert f.shape == (3,) and g.shape == (3, d, d)
            for i in range(3):
                f_i, g_i = _minor_residual_and_grad(q[i], r)
                assert f[i] == f_i and np.array_equal(g[i], g_i), (d, r, i)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), near=st.integers(0, 3),
       far=st.integers(1, 4), noise=st.sampled_from([1e-14, 1e-13, 1e-12]),
       max_iters=st.integers(3, 30))
def test_sphere_descent_rows_are_independent(seed, near, far, noise,
                                             max_iters):
    # five operators orthogonal to a unit rank-2 matrix p: the start at p
    # reaches the residual floor within a few steps, starts next to p
    # stop early or backtrack at length, random starts run to the budget
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 4))
    p /= np.linalg.norm(p)
    ops = [g - np.sum(g * p) * p for g in rng.standard_normal((5, 4, 4))]
    e = MeasurementEnsemble("real", "matrix", 4, ops)
    basis, _ = _kernel_basis(_stacked_rows(e.operators, "real"))
    kdim = basis.shape[1]
    planted = basis.T @ p.ravel()
    starts = np.concatenate([
        planted[None], planted + noise * rng.standard_normal((near, kdim)),
        rng.standard_normal((far, kdim))])
    starts = starts[rng.permutation(len(starts))]
    starts /= np.linalg.norm(starts, axis=1)[:, None]
    fg = _minor_objective(basis, 4, 2)
    t, f = _sphere_descent(fg, starts, max_iters)
    assert (f <= 1e-32).any() and (f > 1e-32).any()
    for i in range(len(starts)):
        t_i, f_i = _sphere_descent(fg, starts[i:i + 1], max_iters)
        assert (abs(f[i] - f_i[0]) <= 1e-12 * f_i[0]
                or max(f[i], f_i[0]) <= 1e-30), i
        assert np.max(np.abs(t[i] - t_i[0])) <= 1e-8, i


def _planted_rank2(rng, m=5):
    """Real 4x4 operators orthogonal to a unit rank-2 matrix ``p``."""
    p = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 4))
    p /= np.linalg.norm(p)
    ops = [g - np.sum(g * p) * p for g in rng.standard_normal((m, 4, 4))]
    return MeasurementEnsemble("real", "matrix", 4, ops), p


def _counted(fg):
    calls = []

    def counted(t):
        calls.append(len(t))
        return fg(t)
    return counted, calls


def test_minor_polish_is_no_worse_than_gradient_descent():
    # the quasi-Newton polish against the single-row gradient descent it
    # replaced, both from the best row of the same block descent
    cases = []
    for s in range(10):
        cases += [(builtin11_ensemble(), 2, 32, 20, s),
                  (gen_gaussian_matrices(4, 11, "real", seed=s), 2, 32, 20, s),
                  (gen_gaussian_matrices(4, 10, "real", seed=s), 2, 32, 20, s),
                  (gen_gaussian_matrices(5, 12, "real", seed=s), 3, 1, 1, s),
                  (gen_gaussian_matrices(5, 12, "real", seed=s), 3, 8, 10, s),
                  (gen_gaussian_matrices(3, 5, "real", seed=s), 1, 8, 10, s),
                  (_planted_rank2(np.random.default_rng(s))[0], 2, 40, 15, s)]
    floor = injectivity._RESIDUAL_FLOOR
    for i, (e, r, restarts, max_iters, seed) in enumerate(cases):
        basis, _ = _kernel_basis(_stacked_rows(e.operators, "real"))
        fg, calls = _counted(_minor_objective(basis, e.d, r))
        starts = np.array([derived_rng(seed, 21, j).standard_normal(
            basis.shape[1]) for j in range(restarts)])
        starts /= np.linalg.norm(starts, axis=1)[:, None]
        t, f = _sphere_descent(fg, starts, max_iters)
        best = t[np.argmin(f)]
        calls.clear()
        t_b, f_b, steps, stop = _sphere_bfgs(fg, best, 10 * max_iters)
        assert len(calls) <= 40 and calls == [1] * len(calls), i
        assert stop in POLISH_STOPS and steps <= 10 * max_iters, i
        _, f_d = _sphere_descent(fg, best[None], 10 * max_iters)
        assert (f_b <= f_d[0] * (1 + 1e-9)
                or max(f_b, f_d[0]) <= floor), (i, f_b, f_d[0])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       noise=st.sampled_from([1e-8, 1e-6, 1e-4, 1e-2]),
       max_iters=st.integers(0, 60))
def test_sphere_bfgs_on_planted_kernels(seed, noise, max_iters):
    # from next to a planted rank-2 kernel element the polish reaches the
    # residual floor; from anywhere it returns a unit row no worse than
    # its start
    rng = np.random.default_rng(seed)
    e, p = _planted_rank2(rng)
    basis, _ = _kernel_basis(_stacked_rows(e.operators, "real"))
    kdim = basis.shape[1]
    fg = _minor_objective(basis, 4, 2)
    near = basis.T @ p.ravel() + noise * rng.standard_normal(kdim)
    for start, planted in ((near, True), (rng.standard_normal(kdim), False)):
        start /= np.linalg.norm(start)
        f0 = fg(start[None])[0][0]
        budget = 40 if planted else max_iters
        t, f, steps, stop = _sphere_bfgs(fg, start, budget)
        assert abs(np.linalg.norm(t) - 1.0) <= 1e-12
        assert f <= f0 and f == fg(t[None])[0][0]
        assert stop in POLISH_STOPS and steps <= budget
        if planted:
            assert f <= injectivity._RESIDUAL_FLOOR
            assert stop == "residual_floor"


def test_minor_system_polish_counters(monkeypatch):
    calls = []

    def counted(q, r):
        calls.append(q.shape)
        return _minor_residual_and_grad(q, r)

    monkeypatch.setattr(injectivity, "_minor_residual_and_grad", counted)
    e = builtin11_ensemble()
    res = verify_kernel_minor_system(e, restarts=32, max_iters=20, seed=5)
    assert res.evaluations == len(calls)  # block and polish calls
    again = verify_kernel_minor_system(e, restarts=32, max_iters=20, seed=5)
    counters = res.polish_steps, res.polish_stop, res.evaluations
    assert counters == (again.polish_steps, again.polish_stop,
                        again.evaluations)
    assert res.polish_stop == "converged" and 0 < res.polish_steps <= 200
    planted, _ = _planted_rank2(np.random.default_rng(0))
    res = verify_kernel_minor_system(planted, restarts=40, max_iters=15)
    assert res.polish_stop == "residual_floor"
    assert res.min_residual <= injectivity._RESIDUAL_FLOOR


def test_verify_kernel_minor_system_rejects_empty_budget():
    e = builtin11_ensemble()
    for kwargs in ({"restarts": 0}, {"restarts": -3}, {"max_iters": -1}):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            verify_kernel_minor_system(e, **kwargs)


# ---------------------------------------------------------------------------
# admissibility probe
# ---------------------------------------------------------------------------


def test_admissibility_probe_examples():
    out = admissibility_probe(symmetric_sampler(4), corner_skew(4), 2000,
                              seed=0)
    assert out.status == VANISHES_ON_ALL_SAMPLES
    out = admissibility_probe(symmetric_sampler(4), _basis_matrix(4, 0, 0),
                              2000, seed=0)
    assert out.status == NON_DEGENERATE and out.sample is not None
    out = admissibility_probe(dense_sampler(2), np.array([[1.0, 2.0],
                                                          [0.0, 1.0]]), 100,
                              seed=0)
    assert out.status == NON_DEGENERATE
    with pytest.raises(ValueError):
        admissibility_probe(symmetric_sampler(2), np.zeros((2, 2)), 10)


@pytest.mark.parametrize("n", [0, -3])
def test_admissibility_probe_needs_a_sample(n):
    # a probe that checks no sample has no verdict
    with pytest.raises(ValueError, match="n_samples"):
        admissibility_probe(symmetric_sampler(2), corner_skew(2), n)
