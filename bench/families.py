"""Input families of the four workloads.

A family builds one case from a random generator: the inputs of one
user-level call (``certify``, ``verify_kernel_minor_system`` or a
``recover_*`` solver), the check of its result against ``checks``, and
the layer probes that the traced run makes on the same inputs.  Sizes
and search budgets keep the calls of a workload near one cost class, so
that its median stays put; README.md gives each family's cost and the
reasons for each choice.
"""

import dataclasses
from typing import Callable

import numpy as np

import varietyrec as vr

import checks

# the traced run times project and apply on this many points per operation
PROBE_POINTS = 20


@dataclasses.dataclass
class Case:
    """One operation: ``run()`` is the timed call."""

    run: Callable
    check: Callable          # result -> list of problems
    failed: Callable         # result -> True when the program gave up
    probe: Callable          # (tracer, result) -> None, traced run only
    ops: np.ndarray = None   # stacked operators the check samples with


@dataclasses.dataclass(frozen=True)
class Family:
    name: str
    build: Callable          # (rng, tracer) -> Case


def _int_seed(rng):
    return int(rng.integers(2 ** 31))


def _gauss(rng, shape, field):
    g = rng.standard_normal(shape)
    if field == "complex":
        g = g + 1j * rng.standard_normal(shape)
    return g


def _generate(tr, fn, *args, **kwargs):
    """Call an ensemble generator, timed as sampling.generate."""
    return tr.call("sampling.generate", lambda: fn(*args, **kwargs),
                   source="setup")


def _ops(e):
    return np.stack(e.operators)


# -- layer probes ------------------------------------------------------


def _probe_project(tr, label, w, rng):
    shape = w.ambient_shape()
    pts = [_gauss(rng, shape, w.field) for _ in range(PROBE_POINTS)]

    def loop():
        for p in pts:
            vr.project(p, w)
    tr.call(f"varieties.project.{label}", loop, calls=PROBE_POINTS)


def _probe_apply(tr, e, rng):
    shape = (e.d,) if e.shape == "vector" else (e.d, e.d)
    pts = [_gauss(rng, shape, e.field) for _ in range(PROBE_POINTS)]

    def loop():
        for p in pts:
            vr.apply(e, p)
    tr.call("sampling.apply", loop, calls=PROBE_POINTS)


def _probe_search(tr, e_search, w, cfg):
    res = tr.call("injectivity.witness_search",
                  lambda: vr.witness_search(e_search, w, cfg))
    tr.last["iters"] = res.iterations
    tr.last["restarts"] = res.restarts_used


def _project_label(w):
    if w.kind == "low_rank":
        return "low_rank_c" if w.field == "complex" else "low_rank_r"
    return w.kind


# -- certify -----------------------------------------------------------


def _certify_case(e, signal, cfg, expect, rng, vectors=None):
    """``expect``: ``no_witness``, ``exact`` or ``refuted``.  ``vectors``
    are the frame of a vector ensemble sampled quadratically."""
    kind = signal.kind
    sampled_by = _ops(e)
    sig = (kind, signal.d, signal.param, signal.field)
    probe_seed = _int_seed(rng)

    def run():
        return vr.certify(e, signal, cfg)

    def check(v):
        if expect == "exact":
            return checks.check_exact(v.status)
        if expect == "no_witness":
            return checks.check_no_witness(v.status, v.margin,
                                           v.restarts_used, cfg.restarts,
                                           cfg.margin_threshold)
        return checks.check_refutation(
            sampled_by, sig, v.status,
            None if v.witness is None else v.witness.element, v.collision)

    def failed(v):
        return v.status == vr.INCONCLUSIVE

    def probe(tr, v):
        prng = np.random.default_rng(probe_seed)
        w = vr.difference_closure(signal)
        e_search = e
        if e.shape == "vector" and kind in ("herm_sig", "rank_one_real"):
            e_search = tr.call("sampling.lift_ensemble",
                               lambda: vr.lift_ensemble(e))
        _probe_apply(tr, e, prng)
        if vectors is not None and e.m <= 24:
            tr.call("injectivity.complement_property",
                    lambda: vr.complement_property(vectors))
            return
        _probe_project(tr, _project_label(w), w, prng)
        _probe_search(tr, e_search, w, cfg)

    return Case(run, check, failed, probe, sampled_by)


def lowrank_c(m, restarts, expect):
    def build(rng, tr):
        e = _generate(tr, vr.gen_gaussian_matrices, 4, m, "complex",
                      seed=_int_seed(rng))
        cfg = vr.SearchConfig(restarts=restarts, seed=_int_seed(rng))
        return _certify_case(e, vr.VarietySpec.low_rank(4, 1, "complex"),
                             cfg, expect, rng)
    return build


def sparse_real(m, restarts, expect):
    def build(rng, tr):
        e = _generate(tr, vr.gen_gaussian_vectors, 8, m, "real",
                      seed=_int_seed(rng))
        cfg = vr.SearchConfig(restarts=restarts, seed=_int_seed(rng))
        return _certify_case(e, vr.VarietySpec.sparse(8, 2), cfg, expect,
                             rng)
    return build


def builtin11_certify(restarts):
    def build(rng, tr):
        e = vr.builtin11_ensemble()
        cfg = vr.SearchConfig(restarts=restarts, seed=_int_seed(rng))
        return _certify_case(e, vr.VarietySpec.low_rank(4, 1, "real"), cfg,
                             "no_witness", rng)
    return build


def real_phase(d, m, expect):
    def build(rng, tr):
        e = _generate(tr, vr.gen_gaussian_vectors, d, m, "real",
                      seed=_int_seed(rng))
        return _certify_case(e, vr.VarietySpec.rank_one_real(d),
                             vr.SearchConfig(), expect, rng,
                             vectors=list(_ops(e)))
    return build


def complex_phase(d, m):
    def build(rng, tr):
        e = _generate(tr, vr.gen_gaussian_vectors, d, m, "complex",
                      seed=_int_seed(rng))
        cfg = vr.SearchConfig(seed=_int_seed(rng))
        return _certify_case(e, vr.VarietySpec.herm_sig(d), cfg, "refuted",
                             rng)
    return build


# -- minor descent -----------------------------------------------------


def _minor_case(e, r, restarts, max_iters, seed, expect):
    """``expect``: ``positive`` (no rank-r kernel element), ``zero``
    (a planted one) or None (consistency checks only)."""
    ops = _ops(e)

    def run():
        return vr.verify_kernel_minor_system(e, restarts=restarts,
                                             max_iters=max_iters, seed=seed,
                                             r=r)

    def check(res):
        out = checks.check_minor(ops, r, res.min_residual, res.argmin)
        if expect == "positive" and not res.min_residual > 1e-6:
            out.append(f"min_residual {res.min_residual:.3e} not above 1e-6")
        if expect == "zero":
            if not res.min_residual <= 1e-6:
                out.append(f"min_residual {res.min_residual:.3e} above 1e-6")
            elif res.argmin is not None:
                s = np.linalg.svd(res.argmin, compute_uv=False)
                if s[r] > PLANTED_RANK_TOL * s[0]:
                    out.append(f"argmin sigma_{r + 1}/sigma_1 = "
                               f"{s[r] / s[0]:.3e}")
        return out

    def probe(tr, res):
        tr.record(f"injectivity.minor_descent.r{r}", restarts=res.restarts)

    return Case(run, check, lambda res: False, probe, ops)


# planted cases reach min_residual 1e-10 or less at a unit argmin, so
# sigma_3 / sigma_1 is near 1e-5; an argmin not close to rank 2 fails
PLANTED_RANK_TOL = 1e-3


def builtin11_minor(restarts, max_iters):
    def build(rng, tr):
        return _minor_case(vr.builtin11_ensemble(), 2, restarts, max_iters,
                           _int_seed(rng), "positive")
    return build


def planted_minor(m, restarts, max_iters):
    """Real 4x4 operators orthogonal to a random unit rank-2 matrix."""
    def build(rng, tr):
        p = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 4))
        p = p / np.linalg.norm(p)
        ops = []
        for _ in range(m):
            g = rng.standard_normal((4, 4))
            ops.append(g - np.sum(g * p) * p)
        e = vr.MeasurementEnsemble(field="real", shape="matrix", d=4,
                                   operators=ops)
        return _minor_case(e, 2, restarts, max_iters, _int_seed(rng), "zero")
    return build


def gauss5_minor(m, restarts, max_iters):
    def build(rng, tr):
        e = _generate(tr, vr.gen_gaussian_matrices, 5, m, "real",
                      seed=_int_seed(rng))
        return _minor_case(e, 3, restarts, max_iters, _int_seed(rng), None)
    return build


# -- recovery ----------------------------------------------------------


def _recover_case(solve, layer, truth, field, rng, w=None):
    probe_seed = _int_seed(rng)

    def check(out):
        return checks.check_recovery(out.estimate, truth, field)

    def probe(tr, out):
        tr.record(layer, iters=out.iterations)
        if w is not None:
            _probe_project(tr, "low_rank_c1", w,
                           np.random.default_rng(probe_seed))

    return Case(solve, check, lambda out: not out.converged, probe)


def phase_recovery(d, m, field):
    def build(rng, tr):
        e = _generate(tr, vr.gen_gaussian_vectors, d, m, field,
                      seed=_int_seed(rng))
        x = _gauss(rng, (d,), field)
        e_mat = tr.call("sampling.lift_ensemble",
                        lambda: vr.lift_ensemble(e), source="setup")
        y = tr.call("sampling.apply",
                    lambda: vr.apply(e_mat, vr.lift_rank_one(x)),
                    source="setup")
        return _recover_case(lambda: vr.recover_phase(e_mat, y),
                             "recovery.recover_phase", x, field, rng)
    return build


def low_rank_recovery(d, r, m):
    def build(rng, tr):
        e = _generate(tr, vr.gen_gaussian_matrices, d, m, "complex",
                      seed=_int_seed(rng))
        q = _gauss(rng, (d, r), "complex") @ _gauss(rng, (r, d), "complex")
        y = tr.call("sampling.apply", lambda: vr.apply(e, q), source="setup")
        return _recover_case(lambda: vr.recover_low_rank(e, y, r),
                             "recovery.recover_low_rank", q, None, rng,
                             w=vr.VarietySpec.low_rank(d, r, "complex"))
    return build


# -- workloads ---------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Workload:
    families: tuple
    # distinct inputs built per family; about the rounds one 20-s run
    # completes here, so that few inputs repeat within a run
    pool_rounds: int


WORKLOADS = {
    "certify-exhaust": Workload((
        Family("lowrank_c_m12", lowrank_c(12, 3, "no_witness")),
        Family("sparse_m4", sparse_real(4, 12, "no_witness")),
        Family("builtin11", builtin11_certify(2)),
        Family("real_phase_d7_m13", real_phase(7, 13, "exact")),
    ), pool_rounds=64),
    "certify-refute": Workload((
        Family("lowrank_c_m11", lowrank_c(11, 200, "refuted")),
        Family("sparse_m3", sparse_real(3, 200, "refuted")),
        Family("herm_sig5_m8", complex_phase(5, 8)),
        Family("real_phase_d7_m12", real_phase(7, 12, "refuted")),
        Family("real_phase_d8_m14", real_phase(8, 14, "refuted")),
    ), pool_rounds=48),
    "minor-descent": Workload((
        Family("builtin11_r2", builtin11_minor(32, 20)),
        Family("planted_r2", planted_minor(5, 40, 15)),
        Family("gauss5_r3", gauss5_minor(12, 1, 1)),
    ), pool_rounds=128),
    "recover": Workload((
        Family("low_rank_c_d4_m16", low_rank_recovery(4, 1, 16)),
    ), pool_rounds=256),
}


def _family(workload, name):
    return next(f for f in WORKLOADS[workload].families if f.name == name)


# layer -> family whose case, built from the fixed generator seed 0,
# times the layer in a traced run whose workload does not reach it.
# recover_phase is in no workload: its failures depend on the inputs
# (see README.md), so it is timed on this fixed case only.
REFERENCE = {
    "varieties.project.low_rank_c": _family("certify-refute", "lowrank_c_m11"),
    "varieties.project.low_rank_r": _family("certify-exhaust", "builtin11"),
    "varieties.project.sparse": _family("certify-refute", "sparse_m3"),
    "varieties.project.herm_sig": _family("certify-refute", "herm_sig5_m8"),
    "varieties.project.low_rank_c1": _family("recover", "low_rank_c_d4_m16"),
    "sampling.generate": _family("certify-refute", "lowrank_c_m11"),
    "sampling.lift_ensemble": _family("certify-refute", "real_phase_d7_m12"),
    "sampling.apply": _family("certify-refute", "lowrank_c_m11"),
    "injectivity.witness_search": _family("certify-refute", "lowrank_c_m11"),
    "injectivity.complement_property": _family("certify-refute",
                                               "real_phase_d7_m12"),
    "injectivity.minor_descent.r2": _family("minor-descent", "builtin11_r2"),
    "injectivity.minor_descent.r3": _family("minor-descent", "gauss5_r3"),
    "recovery.recover_phase": Family("phase_real_d4_m16",
                                     phase_recovery(4, 16, "real")),
    "recovery.recover_low_rank": _family("recover", "low_rank_c_d4_m16"),
}
