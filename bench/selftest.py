"""Self-test of the benchmark's correctness checks.

Each check must accept the program's genuine result and reject a
corrupted copy of it.  Run from the root of a checkout:

    python3 bench/selftest.py
"""

import dataclasses
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import families  # noqa: E402
import tracing  # noqa: E402


def _case(workload, name, seed=0):
    return _run(next(f for f in families.WORKLOADS[workload].families
                     if f.name == name), seed)


def _run(fam, seed=0):
    case = fam.build(np.random.default_rng(seed), tracing.NullTracer())
    return case, case.run()


def _with_witness(v, element):
    return dataclasses.replace(
        v, witness=dataclasses.replace(v.witness, element=element))


class RefutationChecks(unittest.TestCase):
    def _corruptions(self, v):
        q = v.witness.element
        bumped = q.copy()
        bumped.flat[int(np.argmax(np.abs(q)))] *= 1.001
        x, y = v.collision
        yield "perturbed witness entry", _with_witness(v, bumped)
        yield "witness not unit", _with_witness(v, 2.0 * q)
        yield "equivalent pair", dataclasses.replace(v, collision=(x, x))
        yield "unequal samples", dataclasses.replace(
            v, collision=(x, y + 1e-3 * np.linalg.norm(y)))
        yield "wrong status", dataclasses.replace(v, status="no_witness_found")

    def _check_family(self, name):
        case, v = _case("certify-refute", name)
        self.assertEqual(case.check(v), [])
        for what, bad in self._corruptions(v):
            with self.subTest(family=name, corruption=what):
                self.assertNotEqual(case.check(bad), [])

    def test_low_rank(self):
        self._check_family("lowrank_c_m11")

    def test_sparse(self):
        self._check_family("sparse_m3")

    def test_hermitian_signature(self):
        self._check_family("herm_sig5_m8")

    def test_real_phase_complement(self):
        self._check_family("real_phase_d7_m12")

    def test_sign_flip_is_not_a_collision(self):
        case, v = _case("certify-refute", "real_phase_d7_m12")
        x, _ = v.collision
        self.assertNotEqual(
            case.check(dataclasses.replace(v, collision=(x, -x))), [])

    def test_witness_off_variety_or_off_kernel(self):
        """A unit kernel element off the difference variety, and a unit
        element of that variety off the kernel, are each rejected."""
        rng = np.random.default_rng(5)
        for fam in ("sparse_m3", "lowrank_c_m11"):
            case, v = _case("certify-refute", fam)
            ops = case.ops
            flat = ops.reshape(ops.shape[0], -1)
            if ops.ndim == 2:        # samples conj(a_j) . x
                flat = flat.conj()
            _, s, vh = np.linalg.svd(flat)
            null = vh[int(np.sum(s > 1e-10 * s[0])):]
            if ops.ndim == 3:        # samples A_j . conj(X)
                null = null.conj()
            shape = v.witness.element.shape
            x = rng.standard_normal(null.shape[0]) @ null
            off_variety = (x / np.linalg.norm(x)).reshape(shape)
            off_kernel = np.zeros_like(v.witness.element)
            off_kernel.flat[:2] = np.sqrt(0.5)
            for what, q in (("off variety", off_variety),
                            ("off kernel", off_kernel)):
                with self.subTest(family=fam, witness=what):
                    self.assertNotEqual(case.check(_with_witness(v, q)), [])


class ExhaustChecks(unittest.TestCase):
    def test_no_witness(self):
        case, v = _case("certify-exhaust", "builtin11")
        self.assertEqual(case.check(v), [])
        for what, change in (
                ("margin below threshold", {"margin": 1e-9}),
                ("budget not used", {"restarts_used": v.restarts_used - 1}),
                ("wrong status", {"status": "inconclusive"})):
            with self.subTest(corruption=what):
                self.assertNotEqual(
                    case.check(dataclasses.replace(v, **change)), [])

    def test_exact(self):
        case, v = _case("certify-exhaust", "real_phase_d7_m13")
        self.assertEqual(case.check(v), [])
        self.assertNotEqual(
            case.check(dataclasses.replace(v, status="no_witness_found")), [])


class MinorChecks(unittest.TestCase):
    def _corruptions(self, res):
        q = res.argmin
        off = q.copy()
        off.flat[0] += 1e-4
        yield "residual off", dataclasses.replace(
            res, min_residual=1.01 * res.min_residual + 1e-12)
        yield "argmin not unit", dataclasses.replace(res, argmin=2.0 * q)
        yield "argmin outside kernel", dataclasses.replace(
            res, argmin=off / np.linalg.norm(off))

    def test_builtin11(self):
        case, res = _case("minor-descent", "builtin11_r2")
        self.assertEqual(case.check(res), [])
        for what, bad in self._corruptions(res):
            with self.subTest(corruption=what):
                self.assertNotEqual(case.check(bad), [])
        self.assertNotEqual(
            case.check(dataclasses.replace(res, min_residual=1e-7)), [])

    def test_planted(self):
        case, res = _case("minor-descent", "planted_r2")
        self.assertEqual(case.check(res), [])
        self.assertLessEqual(res.min_residual, 1e-6)
        self.assertNotEqual(
            case.check(dataclasses.replace(res, min_residual=1e-3)), [])
        full_rank = res.argmin + 0.05 * np.eye(4)
        self.assertNotEqual(case.check(dataclasses.replace(
            res, argmin=full_rank / np.linalg.norm(full_rank))), [])

    def test_cofactor_size(self):
        case, res = _case("minor-descent", "gauss5_r3")
        self.assertEqual(case.check(res), [])
        self.assertNotEqual(case.check(dataclasses.replace(
            res, min_residual=0.5 * res.min_residual)), [])
        # unit and self-consistent, but off the kernel
        q = np.random.default_rng(3).standard_normal((5, 5))
        q /= np.linalg.norm(q)
        s = np.linalg.svd(q, compute_uv=False)
        self.assertNotEqual(case.check(dataclasses.replace(
            res, argmin=q,
            min_residual=checks.elementary_symmetric(s ** 2, 4))), [])


class RecoveryChecks(unittest.TestCase):
    def test_families(self):
        for fam in (families.REFERENCE["recovery.recover_phase"],
                    families.REFERENCE["recovery.recover_low_rank"]):
            case, out = _run(fam)
            _, other = _run(fam, seed=1)
            with self.subTest(family=fam.name):
                self.assertEqual(case.check(out), [])
                self.assertNotEqual(case.check(dataclasses.replace(
                    out, estimate=other.estimate)), [])
                self.assertNotEqual(case.check(dataclasses.replace(
                    out, estimate=out.estimate * (1 + 1e-4))), [])

    def test_sign_is_ignored(self):
        case, out = _run(families.REFERENCE["recovery.recover_phase"])
        self.assertEqual(case.check(dataclasses.replace(
            out, estimate=-out.estimate)), [])


if __name__ == "__main__":
    unittest.main()
