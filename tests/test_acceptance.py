"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np

from varietyrec import (BUILTIN_11_MATRICES, CERTIFIED_EXACT,
                        NO_WITNESS_FOUND, NON_DEGENERATE,
                        REFUTED_WITH_WITNESS, VANISHES_ON_ALL_SAMPLES,
                        SearchConfig, VarietySpec, admissibility_probe, apply,
                        builtin11_ensemble, certify, collision_is_distinct,
                        collision_residual, complement_property, corner_skew,
                        complex_pr_bounds, derived_rng, difference_closure,
                        equivalence_distance, gen_gaussian_matrices,
                        gen_gaussian_vectors, gen_hermitian_rank,
                        lift_rank_one, membership, minor_residual, project,
                        real_pr_bounds, recover_phase, recover_sparse,
                        symmetric_sampler, tau, tau_inverse,
                        verify_kernel_minor_system)
from varietyrec.refdata import PUBLISHED_EXACT


def _report(number, label, ok, detail, started):
    elapsed = time.perf_counter() - started
    line = (f"[criterion {number}] {label}: {'PASS' if ok else 'FAIL'}"
            f" ({detail}; {elapsed:.1f}s)")
    print(line)
    assert ok, line


def test_criterion_1_bounds_reproduction():
    t0 = time.perf_counter()
    ok = all(complex_pr_bounds(d).exact == want
             for d, want in PUBLISHED_EXACT["complex_pr"].items())
    ok = ok and all(real_pr_bounds(d).exact == want
                    for d, want in PUBLISHED_EXACT["real_pr"].items())
    for d in range(5, 4099):
        rep = complex_pr_bounds(d)
        ok = ok and rep.lower <= rep.upper
        if rep.exact is not None:
            ok = ok and rep.lower <= rep.exact <= rep.upper
        rrep = real_pr_bounds(d)
        if rrep.exact is not None:
            ok = ok and rrep.lower <= rrep.exact <= rrep.upper
    _report(1, "bounds reproduction", ok, "exact values + sweep 5:4098", t0)


def test_criterion_2_low_rank_threshold():
    t0 = time.perf_counter()
    ok = True
    details = []
    signal = VarietySpec.low_rank(4, 1, "complex")
    for seed in range(1, 6):
        v = certify(gen_gaussian_matrices(4, 11, "complex", seed=seed), signal)
        good = (v.status == REFUTED_WITH_WITNESS
                and v.witness.residual < 1e-8
                and v.restarts_used <= 200)
        ok = ok and good
        details.append(f"m=11 seed {seed} res "
                       f"{v.witness.residual if v.witness else math.nan:.1e}")
    for seed in range(1, 6):
        v = certify(gen_gaussian_matrices(4, 12, "complex", seed=seed), signal)
        ok = ok and v.status == NO_WITNESS_FOUND and v.margin > 1e-6
        details.append(f"m=12 seed {seed} margin {v.margin:.1e}")
    _report(2, "low-rank threshold m=11/12", ok, "; ".join(details[:3]) + " ...",
            t0)


# independent copy of the published integer entries, for the data check
_EXPECTED_11 = (
    ((-4, 1, 3, 4), (-4, 4, 4, 3), (4, -3, 0, -3), (0, -4, 2, 1)),
    ((0, 3, -1, -1), (0, -2, -1, 2), (0, 3, -2, 3), (1, -1, -3, 2)),
    ((-1, -4, -1, -1), (4, 0, -1, 1), (-2, 0, 0, 2), (0, -1, 2, 2)),
    ((-2, -2, 4, 1), (-2, 0, 2, 3), (1, -2, -4, 3), (-3, 3, 4, -2)),
    ((4, 2, -4, -4), (-4, -3, 0, 0), (1, -4, 4, -2), (3, 0, 2, 0)),
    ((2, 2, 3, 4), (2, -4, 3, 1), (0, -2, 1, -2), (-1, 0, -1, -4)),
    ((2, 1, 4, 0), (-1, -3, 0, -1), (4, -1, -4, 3), (0, 3, 0, 4)),
    ((0, 3, -1, 2), (4, 2, 1, 1), (-2, -1, 3, 4), (3, 0, 3, 3)),
    ((2, -1, 4, -4), (-2, 2, 3, -1), (-1, 1, 4, -1), (-3, -4, 4, 3)),
    ((-4, 2, 0, -1), (4, 1, 0, 4), (-1, -3, 4, 1), (-3, 2, 4, -4)),
    ((1, 1, -2, 0), (3, 0, -2, -4), (2, -4, -2, 4), (4, 3, 2, -2)),
)


def test_criterion_3_eleven_matrix_system():
    t0 = time.perf_counter()
    data_ok = BUILTIN_11_MATRICES == _EXPECTED_11
    e = builtin11_ensemble()
    ints_ok = all(np.array_equal(op, np.array(mat, dtype=float))
                  for op, mat in zip(e.operators, _EXPECTED_11))
    res = verify_kernel_minor_system(e, restarts=500)
    minor_ok = res.min_residual > 1e-6
    v = certify(e, VarietySpec.low_rank(4, 1, "real"))
    certify_ok = v.status == NO_WITNESS_FOUND
    ok = data_ok and ints_ok and minor_ok and certify_ok
    _report(3, "built-in 11-matrix ensemble", ok,
            f"min_residual {res.min_residual:.2e} over {res.restarts} "
            f"restarts, certify {v.status}", t0)


def test_criterion_4_complement_property():
    t0 = time.perf_counter()
    ok = True
    for d in (2, 3, 4, 5):
        for seed in range(50):
            good = gen_gaussian_vectors(d, 2 * d - 1, "real",
                                        seed=seed).operators
            passed, _ = complement_property(np.stack(good))
            ok = ok and passed
            short = gen_gaussian_vectors(d, 2 * d - 2, "real",
                                         seed=seed).operators
            a = np.stack(short)
            passed, subset = complement_property(a)
            valid = (not passed and subset is not None)
            if valid:
                comp = [j for j in range(2 * d - 2) if j not in set(subset)]
                valid = (np.linalg.matrix_rank(a[list(subset)]) < d
                         and np.linalg.matrix_rank(a[comp]) < d)
            ok = ok and valid
    _report(4, "complement property 2d-1 vs 2d-2", ok,
            "d in 2..5, 50 seeds each", t0)


def test_criterion_5_sparse_threshold():
    t0 = time.perf_counter()
    wins = 0
    for seed in range(100):
        e = gen_gaussian_vectors(8, 4, "real", seed=seed)
        rng = derived_rng(seed, 77)
        x = np.zeros(8)
        x[rng.choice(8, 2, replace=False)] = rng.standard_normal(2)
        out = recover_sparse(e, apply(e, x), 2)
        rel = np.linalg.norm(out.estimate - x) / np.linalg.norm(x)
        if out.converged and rel < 1e-10:
            wins += 1
    e3 = gen_gaussian_vectors(8, 3, "real", seed=0)
    v = certify(e3, VarietySpec.sparse(8, 2))
    refuted_ok = (v.status == REFUTED_WITH_WITNESS
                  and np.count_nonzero(v.witness.element) <= 4
                  and membership(v.witness.element, VarietySpec.sparse(8, 4),
                                 1e-8))
    ok = wins == 100 and refuted_ok
    _report(5, "sparse threshold m=4 vs m=3", ok,
            f"{wins}/100 exact recoveries, m=3 {v.status}", t0)


def test_criterion_6_phase_recovery():
    t0 = time.perf_counter()
    converged_good = 0
    wrong_but_converged = 0
    for seed in range(50):
        e = gen_gaussian_vectors(3, 5, "real", seed=1000 + seed)
        rng = derived_rng(seed, 78)
        x = rng.standard_normal(3)
        y = np.abs(e.stack().conj() @ x) ** 2
        out = recover_phase(e, y, truth=x)
        if out.converged:
            if out.equivalence_distance < 1e-6:
                converged_good += 1
            else:
                wrong_but_converged += 1
    ok = converged_good >= 48 and wrong_but_converged == 0
    _report(6, "quadratic recovery d=3 m=5", ok,
            f"{converged_good}/50 within 1e-6, "
            f"{wrong_but_converged} wrong-but-converged", t0)


def _refuted_verdicts():
    cases = []
    e = gen_gaussian_vectors(8, 3, "real", seed=0)
    cases.append((e, VarietySpec.sparse(8, 2), certify(e, VarietySpec.sparse(8, 2))))
    for seed in (1, 2):
        e = gen_gaussian_matrices(4, 11, "complex", seed=seed)
        sig = VarietySpec.low_rank(4, 1, "complex")
        cases.append((e, sig, certify(e, sig)))
    for seed in (3, 5):
        e = gen_hermitian_rank(2, (2, 2, 2), seed=seed)
        sig = VarietySpec.herm_sig(2)
        cases.append((e, sig, certify(e, sig, SearchConfig(restarts=50))))
    for seed in (0, 1):
        e = gen_gaussian_vectors(3, 4, "real", seed=seed)
        sig = VarietySpec.rank_one_real(3)
        cases.append((e, sig, certify(e, sig)))
    return cases


def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    ok = True

    # projection idempotence + truncation optimality, 200 seeded cases
    specs = [VarietySpec.sparse(7, 3), VarietySpec.low_rank(5, 2, "real"),
             VarietySpec.low_rank(4, 1, "complex"), VarietySpec.herm_sig(4),
             VarietySpec.rank_one_real(5)]
    for case in range(200):
        w = specs[case % len(specs)]
        kind, d = w.ambient
        x = rng.standard_normal((d, d)) if kind == "matrix" else rng.standard_normal(d)
        if w.field == "complex":
            x = x + 1j * (rng.standard_normal((d, d)) if kind == "matrix"
                          else rng.standard_normal(d))
        p = project(x, w)
        ok = ok and np.linalg.norm(project(p, w) - p) <= 1e-12 * max(1.0, np.linalg.norm(p))
        ok = ok and membership(p, w, 1e-8)
        if w.kind == "low_rank":
            base = np.linalg.norm(x - p)
            for _ in range(2):
                y = rng.standard_normal((d, w.param)) @ rng.standard_normal((w.param, d))
                if w.field == "complex":
                    y = y + 1j * rng.standard_normal((d, w.param)) @ rng.standard_normal((w.param, d))
                ok = ok and base <= np.linalg.norm(x - y) + 1e-9

    # tau round trips, 100 cases at 1e-12
    for _ in range(100):
        a = rng.standard_normal((4, 4))
        ok = ok and np.linalg.norm(tau_inverse(tau(a)) - a) <= 1e-12
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = 0.5 * (h + h.conj().T)
        ok = ok and np.linalg.norm(tau(tau_inverse(h)) - h) <= 1e-12

    # lift identity, 100 cases at 1e-10
    for _ in range(100):
        a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        lhs = abs(np.vdot(a, x)) ** 2
        rhs = np.vdot(lift_rank_one(x), lift_rank_one(a))
        ok = ok and abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    # witness-to-collision re-verification on every refuted verdict
    for e, sig, v in _refuted_verdicts():
        ok = ok and v.status == REFUTED_WITH_WITNESS
        w = v.witness
        ok = ok and abs(np.linalg.norm(w.element) - 1.0) <= 1e-10
        ok = ok and membership(w.element, difference_closure(sig), 1e-8)
        x, y = v.collision
        scale = max(1.0, np.linalg.norm(apply(e, e.operators[0]).y))
        ok = ok and collision_residual(e, sig, x, y) <= 1e-8 * scale
        ok = ok and collision_is_distinct(x, y, sig)

    # minor residual agrees with rank membership, 200 cases
    for _ in range(200):
        d = int(rng.integers(2, 6))
        r = int(rng.integers(0, d))
        rank = int(rng.integers(0, d + 1))
        x = (rng.standard_normal((d, rank)) @ rng.standard_normal((rank, d))
             if rank else np.zeros((d, d)))
        res = minor_residual(x, r)
        member = membership(x, VarietySpec.low_rank(d, r, "real"), 1e-10)
        ok = ok and (res <= 1e-16 * max(1.0, np.linalg.norm(x) ** (2 * r + 2))) == member

    # equivalence distance is a pseudometric, 100 triples
    for _ in range(100):
        x, y, z = (rng.standard_normal(4) + 1j * rng.standard_normal(4)
                   for _ in range(3))
        dxy = equivalence_distance(x, y, "complex")
        ok = ok and abs(dxy - equivalence_distance(y, x, "complex")) <= 1e-10
        ok = ok and dxy <= (equivalence_distance(x, z, "complex")
                            + equivalence_distance(y, z, "complex") + 1e-10)
        c = np.exp(1j * rng.uniform(0, 7))
        ok = ok and equivalence_distance(x, c * x, "complex") <= 1e-10

    _report(7, "property suites", ok,
            "projections, tau, lift, collisions, minors, pseudometric", t0)


def test_criterion_8_admissibility_counterexample():
    t0 = time.perf_counter()
    ok = True
    for d in (2, 4, 8):
        out = admissibility_probe(symmetric_sampler(d), corner_skew(d),
                                  10 ** 4, seed=d)
        ok = ok and out.status == VANISHES_ON_ALL_SAMPLES
        ok = ok and out.samples_checked == 10 ** 4
        e11 = np.zeros((d, d))
        e11[0, 0] = 1.0
        out = admissibility_probe(symmetric_sampler(d), e11, 10 ** 4, seed=d)
        ok = ok and out.status == NON_DEGENERATE
    _report(8, "admissibility counterexample", ok, "d in {2,4,8}, 1e4 samples",
            t0)
