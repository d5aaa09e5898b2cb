"""Recovery solvers: support enumeration, iterative hard thresholding,
and multistart Gauss-Newton on the signal for quadratic samples, plus
the phase-transition sweep.

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

from .sampling import (SampleVector, _gauss, apply, derived_rng,
                       gen_gaussian_matrices, gen_gaussian_vectors,
                       lift_rank_one)
from .varieties import (VarietySpec, _norm, equivalence_distance, hermitize,
                        project)

_STREAM_IHT = 30
_STREAM_PHASE = 31
_STREAM_SWEEP = 40

_STAGNATION_WINDOW = 20
_STAGNATION_RTOL = 1e-12
# a Gauss-Newton step is halved at most this often before the run ends
_HALVINGS = 30


@dataclasses.dataclass(frozen=True)
class RecoverConfig:
    tol_fit: float = 1e-8
    max_iters: int = 2000
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(
                f"restarts must be at least 1, got {self.restarts}")


# recover_phase's default: near the minimal sample count a random start
# falls outside the truth's basin more often, so it gets more restarts
PHASE_CONFIG = RecoverConfig(restarts=30)


@dataclasses.dataclass
class RecoveryOutcome:
    estimate: np.ndarray
    residual: float
    equivalence_distance: float = None
    iterations: int = 0
    converged: bool = False
    ambiguous: bool = False


def _as_samples(e, y):
    yv = y.y if isinstance(y, SampleVector) else np.asarray(y, np.complex128)
    if yv.ndim != 1 or yv.size != e.m:
        raise ValueError(f"expected {e.m} samples, got {yv.size}")
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
    yv = _as_samples(e, y)
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


def _iht(e, yv, project_fn, cfg):
    """Hard thresholding with exact line-search steps and restarts.

    Each restart runs up to ``max_iters`` gradient/projection rounds with
    the step length minimizing the data misfit along the gradient
    direction; relative progress below ``_STAGNATION_RTOL`` over
    ``_STAGNATION_WINDOW`` iterations ends the run early.
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
        return _norm(samples(x) - yc)

    x0 = project_fn(adjoint(yc))
    scale0 = max(float(np.linalg.norm(x0)), 1.0)
    best = None
    total_iters = 0
    for ridx in range(cfg.restarts):
        if ridx == 0:
            x = x0
        else:
            # complex for every field: seeded restarts depend on the
            # rounding of the complex division below
            rng = derived_rng(cfg.seed, _STREAM_IHT, ridx)
            g = _gauss(rng, (d, d), e.field).astype(complex)
            x = project_fn(g / np.linalg.norm(g) * scale0)
        run_best = (residual(x), x)
        history = [run_best[0]]
        for _ in range(cfg.max_iters):
            if run_best[0] <= tol_abs:
                break
            g = adjoint(yc - samples(x))
            # ||g||^2 = Re<r, M g>, so M g = 0 only when g = 0, and then
            # every step length leaves x where it is
            mg2 = _norm(samples(g)) ** 2
            eta = _norm(g) ** 2 / mg2 if mg2 > 0 else 0.0
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
    yv = _as_samples(e, y)
    est, res, iters, ok = _iht(e, yv, lambda x: project(x, w), cfg)
    if e.field == "real" and np.max(np.abs(est.imag)) < 1e-12:
        est = est.real
    eq = None if truth is None else float(np.linalg.norm(est - np.asarray(truth)))
    return RecoveryOutcome(estimate=est, residual=res, equivalence_distance=eq,
                           iterations=iters, converged=ok)


def _quadratic_forms(e, yv):
    """Operators as an (m, d, d) stack, Hermitian forms ``Q_j`` and real
    targets ``t_j`` with ``x* Q_j x = t_j``.

    A vector row enters as its lift ``a_j a_j*``.  An operator splits as
    ``x* A_j x = x* H_j x + i x* K_j x`` with Hermitian ``H_j = (A_j +
    A_j*)/2`` and ``K_j = (A_j - A_j*)/(2i)``, fitted to ``Re y_j`` and
    ``Im y_j``; the skew forms are kept only where some ``K_j`` is nonzero
    and the signal is complex (a real x has ``x^T K_j x = 0``).
    """
    ops = lift_rank_one(e.operators) if e.shape == "vector" else e.operators
    forms, target = hermitize(ops), yv.real
    skew = -0.5j * (ops - ops.conj().swapaxes(-1, -2))
    if e.field == "complex" and np.any(skew):
        forms = np.concatenate([forms, skew])
        target = np.concatenate([target, yv.imag])
    return ops, forms, target


def _misfit(forms, target, x):
    """Residuals ``x* Q_j x - t_j`` and the products ``Q_j x``."""
    qx = forms @ x
    return np.real(qx @ x.conj()) - target, qx


def _gauss_newton_phase(forms, target, x, cfg, tol_abs):
    """One Gauss-Newton run on ``x* Q_j x = t_j`` from ``c x``, where
    ``c >= 0`` fits ``c^2 x* Q_j x`` to ``t`` in least squares.

    Complex signals are solved for in real coordinates ``(Re x, Im x)``.
    Each step is halved until the misfit drops; the run ends at
    ``tol_abs``, when no halving helps, when the relative decrease falls
    below ``_STAGNATION_RTOL``, or after ``max_iters`` steps.  Returns the
    final misfit, the iterate and the number of steps.
    """
    d = x.shape[0]
    real = not np.iscomplexobj(x)
    q = _misfit(forms, 0.0, x)[0]
    qq = float(q @ q)
    x = math.sqrt(max(float(q @ target) / qq if qq > 0 else 0.0, 0.0)) * x
    r, qx = _misfit(forms, target, x)
    res = float(np.linalg.norm(r))
    steps = 0
    while steps < cfg.max_iters and res > tol_abs:
        jac = 2.0 * (qx if real else np.concatenate([qx.real, qx.imag], 1))
        dz = np.linalg.lstsq(jac, -r, rcond=None)[0]
        dx = dz if real else dz[:d] + 1j * dz[d:]
        steps += 1
        eta = 1.0
        for _ in range(_HALVINGS):
            r_new, qx_new = _misfit(forms, target, x + eta * dx)
            res_new = float(np.linalg.norm(r_new))
            if res_new < res:
                break
            eta *= 0.5
        else:
            break  # no step length lowers the misfit
        stalled = res - res_new < _STAGNATION_RTOL * res
        x, r, qx, res = x + eta * dx, r_new, qx_new, res_new
        if stalled:
            break
    return res, x, steps


def recover_phase(e, y, cfg=None, truth=None):
    """Quadratic-sample recovery by multistart Gauss-Newton on the signal.

    Takes a vector ensemble with samples ``|<a_j, x>|^2`` or a matrix
    ensemble with samples ``x* A_j x``; a vector ensemble and its lift
    give the same estimate.  Restart 0 starts from the top eigenvector of
    ``sum_j t_j Q_j`` (see ``_quadratic_forms``), every later restart from
    a Gaussian drawn from ``cfg.seed``; the search stops at the first
    restart that fits.  ``iterations`` is the number of Gauss-Newton
    steps summed over the restarts run.

    The answer is defined up to a sign (real) or a unimodular constant
    (complex); the estimate is normalized so its largest-magnitude entry
    is real positive.  Residual and convergence are judged on the
    estimate's rank-one lift against the given samples.
    """
    cfg = cfg or PHASE_CONFIG
    yv = _as_samples(e, y)
    ops, forms, target = _quadratic_forms(e, yv)
    tol_abs = cfg.tol_fit * float(np.linalg.norm(yv))
    best = None
    iters = 0
    for ridx in range(cfg.restarts):
        if ridx == 0:
            x = np.linalg.eigh(np.tensordot(target, forms, 1))[1][:, -1]
        else:
            rng = derived_rng(cfg.seed, _STREAM_PHASE, ridx)
            x = _gauss(rng, e.d, e.field)
        run = _gauss_newton_phase(forms, target, x, cfg, tol_abs)
        iters += run[2]
        if best is None or run[0] < best[0]:
            best = run
        if best[0] <= tol_abs:
            break
    xhat = best[1]
    if np.any(xhat):
        i = int(np.argmax(np.abs(xhat)))
        xhat = xhat / (xhat[i] / abs(xhat[i]))
    lifted = np.outer(xhat, np.conj(xhat))
    res = float(np.linalg.norm(ops.reshape(e.m, -1) @ lifted.conj().ravel()
                               - yv))
    eq = None if truth is None else equivalence_distance(xhat, truth, e.field)
    return RecoveryOutcome(estimate=xhat, residual=res,
                           equivalence_distance=eq, iterations=iters,
                           converged=res <= tol_abs)


# ---------------------------------------------------------------------------
# phase-transition sweep
# ---------------------------------------------------------------------------


def _sparse_trial(d, k, m, field, rng, cfg):
    seed = int(rng.integers(2 ** 31))
    e = gen_gaussian_vectors(d, m, field=field, seed=seed)
    x = np.zeros(d, dtype=np.float64 if field == "real" else np.complex128)
    support = rng.choice(d, size=k, replace=False)
    x[support] = _gauss(rng, k, field)
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
    x = _gauss(rng, d, field)
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
