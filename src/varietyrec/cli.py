"""Command-line surface.

Machine-parsable JSON (or CSV where asked) goes to stdout with
deterministic rendering; human-readable progress goes to stderr.  Exit
code is 0 unless a command fails or a ``verify`` check does not pass.
"""

import argparse
import dataclasses
import sys

import numpy as np

from . import bounds as bounds_mod
from . import jsonio
from .injectivity import (REFUTED_WITH_WITNESS, NO_WITNESS_FOUND,
                          SearchConfig, admissibility_probe, certify,
                          symmetric_sampler, verify_kernel_minor_system)
from .recovery import (PHASE_CONFIG, RecoverConfig, phase_transition_sweep,
                       recover_low_rank, recover_phase, recover_sparse)
from .refdata import (EXPECTED_DIGEST, PUBLISHED_EXACT, builtin11_ensemble,
                      corner_skew, data_digest)
from .sampling import (gen_gaussian_matrices, gen_gaussian_vectors,
                       gen_hermitian_rank, gen_symmetric_rank, load_ensemble,
                       load_samples, ensemble_to_json)
from .varieties import (KIND_HERM_SIG, KIND_LOW_RANK, KIND_RANK_ONE_REAL,
                        KIND_SPARSE, VarietySpec, dim_complex_symmetric,
                        dim_low_rank, dim_sparse)


def _log(msg):
    print(msg, file=sys.stderr)


def _emit(args, obj=None, text=None):
    out = text if text is not None else jsonio.dumps(obj)
    print(out)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(out)
            fh.write("\n")


def _witness_json(w):
    if w is None:
        return None
    return {"element": jsonio.array_to_json(w.element),
            "residual": float(w.residual), "restart": int(w.restart),
            "iterations": int(w.iterations)}


def _verdict_json(v):
    collision = None
    if v.collision is not None:
        collision = {"x": jsonio.array_to_json(v.collision[0]),
                     "y": jsonio.array_to_json(v.collision[1])}
    return {"status": v.status, "margin": v.margin,
            "restarts": int(v.restarts_used), "iterations": int(v.iterations),
            "witness": _witness_json(v.witness), "collision": collision,
            "config": dict(v.tolerances)}


def _outcome_json(o):
    return {"estimate": jsonio.array_to_json(o.estimate),
            "residual": float(o.residual),
            "equivalence_distance": o.equivalence_distance,
            "iterations": int(o.iterations), "converged": bool(o.converged),
            "ambiguous": bool(o.ambiguous)}


def _parse_variety(text, d=None, field=None):
    parts = text.split(":")
    kind = parts[0]
    nums = [int(p) for p in parts[1:]]
    if kind == KIND_HERM_SIG:
        dd = nums[0] if nums else d
        return VarietySpec.herm_sig(dd)
    if kind == KIND_RANK_ONE_REAL:
        dd = nums[0] if nums else d
        return VarietySpec.rank_one_real(dd)
    if kind in (KIND_SPARSE, KIND_LOW_RANK):
        if len(nums) == 2:
            dd, p = nums
        elif len(nums) == 1 and d is not None:
            dd, p = d, nums[0]
        else:
            raise ValueError(f"variety {text!r} needs kind:d:param "
                             "(or kind:param with the ensemble present)")
        if kind == KIND_SPARSE:
            return VarietySpec.sparse(dd, p, field or "real")
        return VarietySpec.low_rank(dd, p, field or "complex")
    raise ValueError(f"unknown variety kind {kind!r}")


def _load_named_ensemble(name):
    if name == "builtin11":
        return builtin11_ensemble()
    return load_ensemble(name)


def _parse_range(text):
    lo, hi = text.split(":")
    return range(int(lo), int(hi) + 1)


def _required(value, name):
    if value is None:
        raise ValueError(f"missing parameter {name}")
    return value


def _solver_config(variety, seed, **overrides):
    """The chosen solver's own default with ``seed`` and the given fields."""
    base = PHASE_CONFIG if variety == "phase" else RecoverConfig()
    return dataclasses.replace(base, seed=seed, **overrides)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_dims(args):
    kind = args.kind
    values = [int(x) for x in args.values]
    d = values[0]
    param = values[1] if len(values) > 1 else None
    if kind == KIND_SPARSE:
        dim = dim_sparse(d, _required(param, "k"))
    elif kind == KIND_LOW_RANK:
        dim = dim_low_rank(d, _required(param, "r"))
    elif kind == "sym_low_rank":
        dim = dim_complex_symmetric(d, _required(param, "r"))
    elif kind == KIND_HERM_SIG:
        dim = VarietySpec.herm_sig(d).dimension()
    elif kind == KIND_RANK_ONE_REAL:
        dim = VarietySpec.rank_one_real(d).dimension()
    else:
        raise ValueError(f"unknown kind {kind!r}")
    _emit(args, {"kind": kind, "d": d, "k_or_r": param, "dimension": dim})
    return 0


def _bounds_report(setting, d, args):
    if setting == "sparse":
        return bounds_mod.sparse_minimal(d, _required(args.k, "--k"))
    if setting == "low_rank":
        return bounds_mod.lowrank_minimal(d, _required(args.r, "--r"),
                                          args.field or "complex")
    if setting == "real_pr":
        return bounds_mod.real_pr_bounds(d)
    if setting == "complex_pr":
        return bounds_mod.complex_pr_bounds(d)
    if setting == "standard_pr":
        return bounds_mod.standard_pr_facts(d)
    if setting == "generic":
        return bounds_mod.generic_report(_required(args.dim_w, "--dim-w"),
                                         args.m)
    raise ValueError(f"unknown setting {setting!r}")


def cmd_bounds(args):
    setting = args.setting
    d = args.d
    if args.values:
        # positional form: bounds <setting> <d> [param]
        if setting is None:
            setting = args.values[0]
            rest = [int(x) for x in args.values[1:]]
        else:
            rest = [int(x) for x in args.values]
        if rest:
            d = rest[0]
        if len(rest) > 1:
            if setting == "sparse":
                args.k = rest[1]
            else:
                args.r = rest[1]
    if args.sweep:
        rows = []
        lines = ["d,lower,upper,exact,regime"]
        for dd in _parse_range(args.sweep):
            rep = _bounds_report(setting, dd, args)
            rows.append(rep.to_json())
            exact = "" if rep.exact is None else str(rep.exact)
            lines.append(f"{dd},{rep.lower},{rep.upper},{exact},{rep.regime}")
        if args.format == "json":
            _emit(args, rows)
        else:
            _emit(args, text="\n".join(lines))
        return 0
    if setting != "generic":
        _required(d, "--d")
    _emit(args, _bounds_report(setting, d, args).to_json())
    return 0


def cmd_generate(args):
    kind = {"gaussian": "gaussian_vectors"}.get(args.kind, args.kind)
    ranks = None
    if args.ranks:
        ranks = [int(x) for x in args.ranks.split(",")]
    if kind == "gaussian_vectors":
        e = gen_gaussian_vectors(args.d, args.m, args.field or "real",
                                 seed=args.seed)
    elif kind == "gaussian_matrices":
        e = gen_gaussian_matrices(args.d, args.m, args.field or "complex",
                                  seed=args.seed)
    elif kind == "symmetric_rank":
        if ranks is None:
            ranks = [args.d] * args.m
        e = gen_symmetric_rank(args.d, ranks, seed=args.seed)
    elif kind == "hermitian_rank":
        if ranks is None:
            ranks = [args.d] * args.m
        e = gen_hermitian_rank(args.d, ranks, seed=args.seed)
    else:
        raise ValueError(f"unknown generator kind {args.kind!r}")
    _emit(args, ensemble_to_json(e))
    return 0


def cmd_certify(args):
    e = _load_named_ensemble(args.ensemble) if args.ensemble else None
    if e is None and (args.d is None or args.m is None):
        raise ValueError("need --ensemble, or --d and --m to generate one")
    d = args.d if e is None else e.d
    if args.variety:
        signal = _parse_variety(args.variety, d=d, field=args.field)
    elif args.r is not None:
        signal = VarietySpec.low_rank(d, args.r, args.field or "complex")
    else:
        raise ValueError("need --variety (or --r with a matrix ensemble)")
    if e is None:
        gen = (gen_gaussian_vectors if signal.ambient[0] == "vector"
               else gen_gaussian_matrices)
        e = gen(d, args.m, args.field or signal.field, seed=args.seed)
    cfg = SearchConfig(restarts=args.restarts, tol_feas=args.tol,
                       seed=args.seed)
    verdict = certify(e, signal, cfg)
    _log(f"certify: {verdict.status}")
    _emit(args, _verdict_json(verdict))
    return 0


def cmd_recover(args):
    e = _load_named_ensemble(args.ensemble)
    y = load_samples(args.samples)
    truth = None
    if args.truth:
        truth = np.asarray(load_samples(args.truth).y)
    kind, *nums = args.variety.split(":")
    if kind == "phase" and len(nums) <= 1:
        d = int(nums[0]) if nums else e.d
    elif kind in (KIND_SPARSE, KIND_LOW_RANK):
        w = _parse_variety(args.variety, d=e.d, field=e.field)
        d = w.d
    else:
        raise ValueError(f"unknown recovery variety {args.variety!r}")
    if d != e.d:
        raise ValueError(f"variety {args.variety!r} has d={d}, "
                         f"but the ensemble has d={e.d}")
    cfg = _solver_config(kind, args.seed, tol_fit=args.tol)
    if kind == KIND_SPARSE:
        out = recover_sparse(e, y, w.param, cfg=cfg, truth=truth)
    elif kind == KIND_LOW_RANK:
        tr = truth.reshape(e.d, e.d) if truth is not None else None
        out = recover_low_rank(e, y, w.param, cfg=cfg, truth=tr)
    else:
        out = recover_phase(e, y, cfg=cfg, truth=truth)
    _log(f"recover: converged={out.converged} residual={out.residual:.3e}")
    _emit(args, _outcome_json(out))
    return 0


def cmd_sweep(args):
    r_or_k = args.k if args.k is not None else args.r
    if args.setting != "phase":
        _required(r_or_k, "--k" if args.setting == "sparse" else "--r")
    overrides = {name: value for name, value in (
        ("max_iters", args.max_iters), ("restarts", args.solver_restarts))
        if value is not None}
    rows = phase_transition_sweep(args.setting, args.d, r_or_k,
                                  _parse_range(args.m_range), args.trials,
                                  seed=args.seed, field=args.field,
                                  cfg=_solver_config(args.setting, args.seed,
                                                     **overrides))
    if args.format == "json":
        _emit(args, rows)
    else:
        lines = ["m,trials,successes,success_rate"]
        for row in rows:
            lines.append(f"{row['m']},{row['trials']},{row['successes']},"
                         f"{format(row['success_rate'], '.17g')}")
        _emit(args, text="\n".join(lines))
    return 0


def cmd_demo_admissibility(args):
    d = args.d
    q0 = corner_skew(d)
    probe_q0 = admissibility_probe(symmetric_sampler(d), q0, args.samples,
                                   seed=args.seed)
    e11 = np.zeros((d, d))
    e11[0, 0] = 1.0
    probe_e11 = admissibility_probe(symmetric_sampler(d), e11, args.samples,
                                    seed=args.seed)
    _log(f"corner-skew functional on symmetric samples: {probe_q0.status}")
    _log(f"E11 functional on symmetric samples: {probe_e11.status}")
    _emit(args, {
        "d": d, "samples": args.samples,
        "corner_skew": {"status": probe_q0.status,
                        "samples_checked": probe_q0.samples_checked},
        "e11": {"status": probe_e11.status,
                "samples_checked": probe_e11.samples_checked},
    })
    return 0


# ---------------------------------------------------------------------------
# verify: reproduce the built-in reference results
# ---------------------------------------------------------------------------


def _check_data():
    ok = data_digest() == EXPECTED_DIGEST
    return ok, {"digest": data_digest(), "expected": EXPECTED_DIGEST}


def _check_minor(args):
    res = verify_kernel_minor_system(builtin11_ensemble(),
                                     restarts=args.restarts, seed=args.seed)
    ok = res.min_residual > 1e-6
    return ok, {"min_residual": res.min_residual, "restarts": res.restarts}


def _check_certify11(args):
    v = certify(builtin11_ensemble(), VarietySpec.low_rank(4, 1, "real"),
                SearchConfig(seed=args.seed))
    ok = v.status == NO_WITNESS_FOUND and v.margin > 1e-6
    return ok, {"status": v.status, "margin": v.margin}


def _check_threshold(args):
    detail = []
    ok = True
    for seed in range(1, args.seeds + 1):
        v11 = certify(gen_gaussian_matrices(4, 11, "complex", seed=seed),
                      VarietySpec.low_rank(4, 1, "complex"),
                      SearchConfig(seed=args.seed))
        good11 = (v11.status == REFUTED_WITH_WITNESS
                  and v11.witness.residual < 1e-8)
        v12 = certify(gen_gaussian_matrices(4, 12, "complex", seed=seed),
                      VarietySpec.low_rank(4, 1, "complex"),
                      SearchConfig(seed=args.seed))
        good12 = v12.status == NO_WITNESS_FOUND and v12.margin > 1e-6
        ok = ok and good11 and good12
        detail.append({"seed": seed, "m11": v11.status, "m12": v12.status})
    return ok, {"seeds": detail}


def _check_bounds():
    ok = all(bounds_mod.complex_pr_bounds(d).exact == want
             for d, want in PUBLISHED_EXACT["complex_pr"].items())
    ok = ok and all(bounds_mod.real_pr_bounds(d).exact == want
                    for d, want in PUBLISHED_EXACT["real_pr"].items())
    for d in range(5, 4099):
        rep = bounds_mod.complex_pr_bounds(d)
        if rep.lower > rep.upper:
            ok = False
        if rep.exact is not None and not rep.lower <= rep.exact <= rep.upper:
            ok = False
    return ok, {"swept": "5:4098"}


def cmd_verify(args):
    if args.seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
    only = set(args.only.split(",")) if args.only else None
    checks = []

    def run(name, fn, *fargs):
        if only is not None and name not in only:
            return
        passed, detail = fn(*fargs)
        checks.append({"name": name, "passed": passed, "detail": detail})
        _log(f"[{'PASS' if passed else 'FAIL'}] {name}")

    run("data", _check_data)
    run("minor", _check_minor, args)
    run("certify", _check_certify11, args)
    run("threshold", _check_threshold, args)
    run("bounds", _check_bounds)
    all_passed = all(c["passed"] for c in checks)
    _emit(args, {"checks": checks, "all_passed": all_passed})
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser():
    p = argparse.ArgumentParser(
        prog="varietyrec",
        description="Minimal-measurement certification and recovery for "
                    "signals on algebraic varieties.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed=True):
        sp.add_argument("--out", help="also write stdout payload to this file")
        if seed:
            sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("dims", help="variety dimension")
    sp.add_argument("kind")
    sp.add_argument("values", nargs="+")
    common(sp, seed=False)
    sp.set_defaults(fn=cmd_dims)

    sp = sub.add_parser("bounds", help="minimal measurement numbers")
    sp.add_argument("values", nargs="*")
    sp.add_argument("--setting", choices=("sparse", "low_rank", "real_pr",
                                          "complex_pr", "standard_pr",
                                          "generic"))
    sp.add_argument("--d", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--r", type=int)
    sp.add_argument("--field", choices=("real", "complex"))
    sp.add_argument("--dim-w", type=int, dest="dim_w")
    sp.add_argument("--m", type=int)
    sp.add_argument("--sweep", help="d range LO:HI")
    sp.add_argument("--format", choices=("json", "csv"), default="csv",
                    help="output of --sweep")
    common(sp, seed=False)
    sp.set_defaults(fn=cmd_bounds)

    sp = sub.add_parser("generate", help="write an ensemble JSON")
    sp.add_argument("--kind", default="gaussian",
                    help="gaussian | gaussian_matrices | symmetric_rank | "
                         "hermitian_rank")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--field", choices=("real", "complex"))
    sp.add_argument("--ranks", help="comma-separated per-operator rank bounds")
    common(sp)
    sp.set_defaults(fn=cmd_generate)

    sp = sub.add_parser("certify", help="injectivity verdict for an ensemble")
    sp.add_argument("--ensemble", help="path to ensemble JSON, or builtin11")
    sp.add_argument("--variety", help="kind:d:param, e.g. low_rank:4:1")
    sp.add_argument("--d", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--r", type=int)
    sp.add_argument("--field", choices=("real", "complex"))
    sp.add_argument("--restarts", type=int, default=200)
    sp.add_argument("--tol", type=float, default=1e-8)
    common(sp)
    sp.set_defaults(fn=cmd_certify)

    sp = sub.add_parser("recover", help="recover a signal from samples")
    sp.add_argument("--ensemble", required=True)
    sp.add_argument("--samples", required=True)
    sp.add_argument("--variety", required=True,
                    help="sparse[:D]:K | low_rank[:D]:R | phase[:D]")
    sp.add_argument("--truth", help="optional ground-truth samples file")
    sp.add_argument("--tol", type=float, default=1e-8)
    common(sp)
    sp.set_defaults(fn=cmd_recover)

    sp = sub.add_parser("sweep", help="phase-transition success-rate sweep")
    sp.add_argument("--setting", required=True,
                    choices=("sparse", "low_rank", "phase"))
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--k", type=int)
    sp.add_argument("--r", type=int)
    sp.add_argument("--m-range", required=True, dest="m_range", help="LO:HI")
    sp.add_argument("--trials", type=int, default=50)
    sp.add_argument("--field", choices=("real", "complex"))
    sp.add_argument("--max-iters", type=int, dest="max_iters",
                    help="override the solver iteration cap")
    sp.add_argument("--solver-restarts", type=int, dest="solver_restarts",
                    help="override the solver restart budget")
    sp.add_argument("--format", choices=("json", "csv"), default="csv")
    common(sp)
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("verify", help="re-run the built-in reference checks")
    sp.add_argument("--only", help="comma list: data,minor,certify,threshold,"
                                   "bounds")
    sp.add_argument("--restarts", type=int, default=500)
    sp.add_argument("--seeds", type=int, default=2,
                    help="random seeds per threshold experiment")
    common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("demo-admissibility",
                        help="hyperplane-degeneracy probe demo")
    sp.add_argument("--d", type=int, default=4)
    sp.add_argument("--samples", type=int, default=10000)
    common(sp)
    sp.set_defaults(fn=cmd_demo_admissibility)

    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        _log(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
