"""Recovery solvers: support enumeration, iterative hard thresholding,
and the lifted phase pipeline, plus the phase-transition sweep.

All solvers report a residual against the given samples and set
``converged`` only when that residual is below ``tol_fit`` relative to
the sample norm, so a converged outcome is always data-consistent; in an
injective regime that pins the signal (up to sign or a unimodular
constant for the quadratic settings).
"""

import dataclasses
import itertools
import math

import numpy as np

from .sampling import (SampleVector, apply, derived_rng, gen_gaussian_matrices,
                       gen_gaussian_vectors, lift_ensemble)
from .varieties import VarietySpec, equivalence_distance, hermitize, project

_STREAM_IHT = 30
_STREAM_SWEEP = 40

_STAGNATION_WINDOW = 20
_STAGNATION_RTOL = 1e-12
_STALL_WINDOW = 80


@dataclasses.dataclass(frozen=True)
class RecoverConfig:
    tol_fit: float = 1e-8
    max_iters: int = 2000
    restarts: int = 10
    seed: int = 0
    # optional slow-progress cutoff: end a restart early when the residual
    # has not shrunk below stall_ratio times its value _STALL_WINDOW
    # iterations ago (the quadratic pipeline enables this; every restart is
    # finished by a local polish, so cutting a crawling run costs little)
    stall_ratio: float = None


# recover_phase's default: many short restarts, each ending in a local polish
PHASE_CONFIG = RecoverConfig(restarts=30, stall_ratio=0.5)


@dataclasses.dataclass
class RecoveryOutcome:
    estimate: np.ndarray
    residual: float
    equivalence_distance: float = None
    iterations: int = 0
    converged: bool = False
    ambiguous: bool = False


def _as_samples(y):
    yv = y.y if isinstance(y, SampleVector) else np.asarray(y, np.complex128)
    if not np.all(np.isfinite(yv)):
        raise ValueError("non-finite samples")
    return yv


# ---------------------------------------------------------------------------
# sparse recovery via support enumeration
# ---------------------------------------------------------------------------


def recover_sparse(e, y, k, cfg=None, truth=None):
    """Exact-fit search over all size-k supports via least squares.

    Flags ``ambiguous`` when a second support also fits the data but
    yields a materially different estimate.  Refuses combinatorial
    budgets above 10^6 supports.
    """
    cfg = cfg or RecoverConfig()
    if e.shape != "vector":
        raise ValueError("recover_sparse expects a vector ensemble")
    d, k = e.d, int(k)
    if not 0 <= k <= d:
        raise ValueError("k out of range")
    if math.comb(d, k) > 10 ** 6:
        raise ValueError("support enumeration budget exceeded")
    yv = _as_samples(y)
    ynorm = float(np.linalg.norm(yv))
    dtype = np.float64 if e.field == "real" else np.complex128
    if ynorm == 0.0:
        return RecoveryOutcome(estimate=np.zeros(d, dtype=dtype), residual=0.0,
                               equivalence_distance=(None if truth is None else
                                                     float(np.linalg.norm(truth))),
                               iterations=0, converged=True)

    c = e.stack().conj()  # y = c @ x, linear in the signal
    best = None
    second_fit = None
    tried = 0
    for support in itertools.combinations(range(d), k):
        tried += 1
        cols = c[:, list(support)]
        coef, *_ = np.linalg.lstsq(cols, yv, rcond=None)
        res = float(np.linalg.norm(cols @ coef - yv))
        est = np.zeros(d, dtype=np.complex128)
        est[list(support)] = coef
        if best is None or res < best[0]:
            if best is not None and best[0] <= cfg.tol_fit * ynorm:
                second_fit = best
            best = (res, est)
        elif res <= cfg.tol_fit * ynorm:
            if second_fit is None or res < second_fit[0]:
                second_fit = (res, est)

    res, est = best
    if e.field == "real":
        est = est.real
    converged = res <= cfg.tol_fit * ynorm
    ambiguous = False
    if converged and second_fit is not None:
        gap = float(np.linalg.norm(second_fit[1] - est))
        ambiguous = gap > cfg.tol_fit * max(1.0, float(np.linalg.norm(est)))
    eq = None if truth is None else float(np.linalg.norm(est - np.asarray(truth)))
    return RecoveryOutcome(estimate=est, residual=res, equivalence_distance=eq,
                           iterations=tried, converged=converged,
                           ambiguous=ambiguous)


# ---------------------------------------------------------------------------
# iterative hard thresholding
# ---------------------------------------------------------------------------


def _iht(e, yv, project_fn, cfg, hermitian=False, polish_fn=None,
         real_field=False):
    """Hard thresholding with exact line-search steps and restarts.

    Each restart runs up to ``max_iters`` gradient/projection rounds with
    the step length minimizing the data misfit along the gradient
    direction; relative progress below ``_STAGNATION_RTOL`` over
    ``_STAGNATION_WINDOW`` iterations ends the run early.  ``polish_fn``,
    when given, refines each run's best iterate before the convergence
    test.
    """
    d = e.d
    stack = e.stack()
    yc = yv.astype(np.complex128)
    ynorm = float(np.linalg.norm(yc))
    tol_abs = cfg.tol_fit * ynorm

    def samples(x):
        return stack @ x.conj().ravel()

    def adjoint(v):
        return (v.conj() @ stack).reshape(d, d)

    def residual(x):
        return float(np.linalg.norm(samples(x) - yc))

    x0 = project_fn(adjoint(yc))
    scale0 = max(float(np.linalg.norm(x0)), 1.0)
    best = None
    total_iters = 0
    for ridx in range(cfg.restarts):
        if ridx == 0:
            x = x0
        else:
            rng = derived_rng(cfg.seed, _STREAM_IHT, ridx)
            g = rng.standard_normal((d, d)).astype(complex)
            if not real_field:
                g = g + 1j * rng.standard_normal((d, d))
            if hermitian:
                g = hermitize(g)
            x = project_fn(g / np.linalg.norm(g) * scale0)
        run_best = (residual(x), x)
        history = [run_best[0]]
        for _ in range(cfg.max_iters):
            if run_best[0] <= tol_abs:
                break
            g = adjoint(yc - samples(x))
            if hermitian:
                g = hermitize(g)
            # ||g||^2 = Re<r, M g>, so M g = 0 only when g = 0, and then
            # every step length leaves x where it is
            mg2 = float(np.linalg.norm(samples(g)) ** 2)
            eta = float(np.linalg.norm(g) ** 2) / mg2 if mg2 > 0 else 0.0
            x = project_fn(x + eta * g)
            total_iters += 1
            res = residual(x)
            if res < run_best[0]:
                run_best = (res, x)
            history.append(res)
            if len(history) > _STAGNATION_WINDOW:
                old = history[-_STAGNATION_WINDOW - 1]
                if old - res < _STAGNATION_RTOL * max(old, 1e-300):
                    break  # stalled; take a fresh start
            if (cfg.stall_ratio is not None
                    and len(history) > _STALL_WINDOW
                    and res > cfg.stall_ratio * history[-_STALL_WINDOW - 1]
                    and res > 100.0 * tol_abs):
                break  # crawling; the post-run polish takes it from here
        if polish_fn is not None:
            xp = polish_fn(run_best[1])
            resp = residual(xp)
            if resp < run_best[0]:
                run_best = (resp, xp)
        if best is None or run_best[0] < best[0]:
            best = run_best
        if best[0] <= tol_abs:
            return best[1], best[0], total_iters, True
    return best[1], best[0], total_iters, best[0] <= tol_abs


def recover_low_rank(e, y, r, cfg=None, truth=None):
    """Iterative hard thresholding onto rank <= r with spectral start."""
    cfg = cfg or RecoverConfig()
    if e.shape != "matrix":
        raise ValueError("recover_low_rank expects a matrix ensemble")
    w = VarietySpec.low_rank(e.d, int(r), field=e.field)
    yv = _as_samples(y)
    if float(np.linalg.norm(yv)) == 0.0:
        est = np.zeros((e.d, e.d), dtype=np.complex128)
        if e.field == "real":
            est = est.real
        eq = None if truth is None else float(np.linalg.norm(truth))
        return RecoveryOutcome(estimate=est, residual=0.0,
                               equivalence_distance=eq, iterations=0,
                               converged=True)
    est, res, iters, ok = _iht(e, yv, lambda x: project(x, w), cfg,
                               real_field=e.field == "real")
    if e.field == "real" and np.max(np.abs(est.imag)) < 1e-12:
        est = est.real
    eq = None if truth is None else float(np.linalg.norm(est - np.asarray(truth)))
    return RecoveryOutcome(estimate=est, residual=res, equivalence_distance=eq,
                           iterations=iters, converged=ok)


def _psd_rank_one(x):
    """Projection onto Hermitian PSD rank <= 1 (top positive eigenpair)."""
    h = hermitize(x)
    vals, vecs = np.linalg.eigh(h)
    lam = float(vals[-1])
    if lam <= 0.0:
        return np.zeros_like(h)
    u = vecs[:, -1]
    return lam * np.outer(u, u.conj())


def _top_vector(x):
    """sqrt(lambda_1) u_1 from the top eigenpair of the hermitized input."""
    vals, vecs = np.linalg.eigh(hermitize(x))
    lam = float(vals[-1])
    if lam <= 0.0:
        return np.zeros(x.shape[0], dtype=complex)
    return math.sqrt(lam) * vecs[:, -1]


def _gauss_newton_phase(ops, y, x, iters=25, real=False):
    """Refine x against quadratic samples x* A_j x by Gauss-Newton.

    Only improving steps are kept, so the output never fits worse than
    the input; in the attraction basin convergence is quadratic, which
    finishes off the slowly contracting tail of the lifted iteration.
    Real problems keep the iterate real (the complex problem can be
    non-injective at sample counts where the real one is fine).
    """
    y = np.real(y)
    if real:
        x = np.real(x).astype(float)

    def resid(v):
        return np.array([np.real(np.vdot(v, a @ v)) for a in ops]) - y

    r = resid(x)
    best = (float(np.linalg.norm(r)), x)
    for _ in range(iters):
        ax = [a @ x for a in ops]
        if real:
            jac = 2.0 * np.stack([np.real(v) for v in ax])
        else:
            jac = np.concatenate([2.0 * np.stack([v.real for v in ax]),
                                  2.0 * np.stack([v.imag for v in ax])],
                                 axis=1)
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        d = x.shape[0]
        x_new = x + (step if real else step[:d] + 1j * step[d:])
        r_new = resid(x_new)
        nrm = float(np.linalg.norm(r_new))
        if not np.isfinite(nrm) or nrm >= best[0]:
            break
        best = (nrm, x_new)
        x, r = x_new, r_new
    return best[1]


def recover_phase(e, y, cfg=None, truth=None):
    """Quadratic-sample recovery through the rank-one Hermitian lift.

    Runs hard thresholding on the lifted linear problem, hermitizing
    every iterate, then extracts the top eigenpair.  The answer is
    defined up to a unimodular constant; the extracted vector is
    normalized so its largest-magnitude entry is real positive.
    Residual and convergence are judged on the extracted rank-one lift.

    The default configuration uses a larger restart budget than the
    linear solvers with a slow-progress cutoff: near the minimal sample
    count the lifted landscape has small basins, and many short runs,
    each ending in a local polish, beat a few long ones.
    """
    cfg = cfg or PHASE_CONFIG
    e_mat = lift_ensemble(e) if e.shape == "vector" else e
    field = e.field
    yv = _as_samples(y)
    d = e_mat.d
    dtype = np.float64 if field == "real" else np.complex128
    ynorm = float(np.linalg.norm(yv))
    if ynorm == 0.0:
        eq = None
        if truth is not None:
            eq = equivalence_distance(np.zeros(d, dtype=dtype), truth, field)
        return RecoveryOutcome(estimate=np.zeros(d, dtype=dtype), residual=0.0,
                               equivalence_distance=eq, iterations=0,
                               converged=True)
    real_field = field == "real"

    def polish(x_mat):
        v = _top_vector(x_mat)
        if np.linalg.norm(v) == 0.0:
            return x_mat
        v = _gauss_newton_phase(e_mat.operators, yv, v.astype(complex),
                                real=real_field)
        return np.outer(v, np.conj(v)).astype(complex)

    est_mat, _, iters, _ = _iht(e_mat, yv, _psd_rank_one, cfg, hermitian=True,
                                polish_fn=polish, real_field=real_field)
    xhat = _top_vector(est_mat)
    if np.linalg.norm(xhat) == 0.0:
        xhat = np.zeros(d, dtype=dtype)
    else:
        i = int(np.argmax(np.abs(xhat)))
        phase = xhat[i] / abs(xhat[i])
        xhat = xhat / phase
        if field == "real":
            xhat = xhat.real
    lifted = np.outer(xhat, np.conj(xhat))
    res = float(np.linalg.norm(e_mat.stack() @ lifted.conj().ravel() - yv))
    converged = res <= cfg.tol_fit * ynorm
    eq = None
    if truth is not None:
        eq = equivalence_distance(xhat, truth, field)
    return RecoveryOutcome(estimate=xhat, residual=res,
                           equivalence_distance=eq, iterations=iters,
                           converged=converged)


# ---------------------------------------------------------------------------
# phase-transition sweep
# ---------------------------------------------------------------------------


def _sparse_trial(d, k, m, field, rng, cfg):
    seed = int(rng.integers(2 ** 31))
    e = gen_gaussian_vectors(d, m, field=field, seed=seed)
    x = np.zeros(d, dtype=np.float64 if field == "real" else np.complex128)
    support = rng.choice(d, size=k, replace=False)
    vals = rng.standard_normal(k)
    if field == "complex":
        vals = vals + 1j * rng.standard_normal(k)
    x[support] = vals
    out = recover_sparse(e, apply(e, x), k, cfg=cfg, truth=x)
    err = float(np.linalg.norm(out.estimate - x)) / max(np.linalg.norm(x), 1e-300)
    return out.converged and err < 1e-6


def _low_rank_trial(d, r, m, field, rng, cfg):
    seed = int(rng.integers(2 ** 31))
    e = gen_gaussian_matrices(d, m, field=field, seed=seed)
    u = rng.standard_normal((d, r))
    v = rng.standard_normal((r, d))
    if field == "complex":
        u = u + 1j * rng.standard_normal((d, r))
        v = v + 1j * rng.standard_normal((r, d))
    q = u @ v
    out = recover_low_rank(e, apply(e, q), r, cfg=cfg, truth=q)
    err = float(np.linalg.norm(out.estimate - q)) / max(np.linalg.norm(q), 1e-300)
    return out.converged and err < 1e-6


def _phase_trial(d, m, field, rng, cfg):
    seed = int(rng.integers(2 ** 31))
    e = gen_gaussian_vectors(d, m, field=field, seed=seed)
    x = rng.standard_normal(d)
    if field == "complex":
        x = x + 1j * rng.standard_normal(d)
    y = np.abs(e.stack().conj() @ x) ** 2
    out = recover_phase(e, y, cfg=cfg, truth=x)
    err = (out.equivalence_distance or 0.0) / max(np.linalg.norm(x), 1e-300)
    return out.converged and err < 1e-6


def phase_transition_sweep(setting, d, r_or_k, m_range, trials, seed=0,
                           field=None, cfg=None):
    """Empirical success fraction of the matching solver per sample count.

    Returns one row dict per m: ``{"m", "trials", "successes",
    "success_rate"}``.  Settings: ``sparse``, ``low_rank``, ``phase``.
    A ``cfg`` of None leaves each solver on its own default.
    """
    rows = []
    if trials <= 0:
        return rows
    if setting == "sparse":
        field = field or "real"
        trial = lambda m, rng: _sparse_trial(d, r_or_k, m, field, rng, cfg)
    elif setting == "low_rank":
        field = field or "complex"
        trial = lambda m, rng: _low_rank_trial(d, r_or_k, m, field, rng, cfg)
    elif setting == "phase":
        field = field or "real"
        trial = lambda m, rng: _phase_trial(d, m, field, rng, cfg)
    else:
        raise ValueError(f"unknown sweep setting {setting!r}")
    for m in m_range:
        m = int(m)
        wins = 0
        for t in range(int(trials)):
            rng = derived_rng(seed, _STREAM_SWEEP, m, t)
            if trial(m, rng):
                wins += 1
        rows.append({"m": m, "trials": int(trials), "successes": wins,
                     "success_rate": wins / trials})
    return rows
