"""Recovery solvers: support enumeration for sparse signals, and one
multistart Gauss-Newton driver shared by low-rank recovery (on the
factors of X = U V^T) and quadratic-sample recovery (on the signal),
plus the phase-transition sweep.

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
from .varieties import equivalence_distance, hermitize

_STREAM_LOW_RANK = 30
_STREAM_PHASE = 31
_STREAM_SWEEP = 40

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
        if not (math.isfinite(self.tol_fit) and self.tol_fit > 0):
            raise ValueError("tol_fit must be finite and positive, got "
                             f"{self.tol_fit}")
        for name, low in (("max_iters", 0), ("restarts", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got "
                                 f"{getattr(self, name)}")


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
# multistart Gauss-Newton
# ---------------------------------------------------------------------------


def _gauss_newton(misfit, direction, z, max_iters, tol_abs):
    """One Gauss-Newton run from ``z``: ``misfit(z)`` gives the residual
    ``r`` and the ``aux`` that ``direction(z, r, aux)`` needs for the step.

    Each step is halved until the misfit drops; the run ends at
    ``tol_abs``, when no halving helps, when the relative decrease falls
    below ``_STAGNATION_RTOL``, or after ``max_iters`` steps.  Returns the
    final misfit, the iterate and the number of steps.
    """
    r, aux = misfit(z)
    res = float(np.linalg.norm(r))
    steps = 0
    while steps < max_iters and res > tol_abs:
        dz = direction(z, r, aux)
        steps += 1
        eta = 1.0
        for _ in range(_HALVINGS):
            r_new, aux_new = misfit(z + eta * dz)
            res_new = float(np.linalg.norm(r_new))
            if res_new < res:
                break
            eta *= 0.5
        else:
            break  # no step length lowers the misfit
        stalled = res - res_new < _STAGNATION_RTOL * res
        z, r, aux, res = z + eta * dz, r_new, aux_new, res_new
        if stalled:
            break
    return res, z, steps


def _multistart(misfit, direction, scale, z0, field, stream, cfg, tol_abs):
    """Gauss-Newton runs from ``scale(z0)``, then from ``scale(g)`` for
    Gaussians ``g`` shaped like ``z0`` drawn from ``derived_rng(cfg.seed,
    stream, ridx)``, until a run fits or ``cfg.restarts`` runs are done.
    Returns the iterate of the run with the lowest misfit, that misfit and
    the number of steps summed over the runs.
    """
    best = None
    iters = 0
    for ridx in range(cfg.restarts):
        if ridx:
            z0 = _gauss(derived_rng(cfg.seed, stream, ridx), z0.shape, field)
        run = _gauss_newton(misfit, direction, scale(z0), cfg.max_iters,
                            tol_abs)
        iters += run[2]
        if best is None or run[0] < best[0]:
            best = run
        if best[0] <= tol_abs:
            break
    return best[1], best[0], iters


def _factor_model(b, r):
    """Samples ``b @ vec(U V^T)`` of the factors ``z = [U | V]`` (shape
    (d, 2r)) for rows ``b`` of shape (m, d*d), and the Gauss-Newton
    direction that fits them: the minimum-norm least-squares solution on
    the Jacobian blocks ``B_j V`` and ``B_j^T U``, which leaves the r^2
    directions of the factorization's gauge alone.  Returns the pair
    ``(samples, direction)``; the direction takes ``(z, res, aux)`` as
    :func:`_gauss_newton` passes it and ignores ``aux``.
    """
    m, d = len(b), math.isqrt(b.shape[1])
    b3 = b.reshape(m, d, d)

    def samples(z):
        return b @ (z[:, :r] @ z[:, r:].T).ravel()

    def direction(z, res, _):
        jac = np.concatenate([b3 @ z[:, r:], b3.mT @ z[:, :r]], 2)
        dz = np.linalg.lstsq(jac.reshape(m, -1), -res, rcond=None)[0]
        return dz.reshape(d, 2 * r)
    return samples, direction


def recover_low_rank(e, y, r, cfg=None, truth=None):
    """Rank-<= r recovery by multistart Gauss-Newton on the factors.

    The estimate is ``U V^T`` with ``[U | V]`` of shape (d, 2r), fitted to
    ``conj(y_j) = <conj(A_j), U V^T>`` (real ensembles fit ``Re y`` in
    real arithmetic) by the steps of :func:`_factor_model`.  Restart 0 starts from the top-r SVD of ``sum_j conj(y_j)
    A_j``, every later restart from Gaussian factors drawn from
    ``cfg.seed``; each start is first scaled to fit the samples in least
    squares, and the search stops at the first restart that fits.
    ``iterations`` is the number of Gauss-Newton steps summed over the
    restarts run.  Residual and convergence are judged on the estimate's
    own samples against the given ones.
    """
    cfg = cfg or RecoverConfig()
    if e.shape != "matrix":
        raise ValueError("recover_low_rank expects a matrix ensemble")
    d, r = e.d, int(r)
    if not 0 <= r <= d:
        raise ValueError(f"parameter {r} out of range [0, {d}]")
    yv = _as_samples(e, y)
    real = e.field == "real"
    stack = e.stack()
    samples, direction = _factor_model(stack.conj(), r)
    t = yv.real if real else yv.conj()

    def scale(z):
        p = samples(z)
        pp = np.vdot(p, p).real
        c = np.vdot(p, t) / pp if pp > 0 else 0.0
        if real:  # U V^T times c, with the sign of c on V
            return math.sqrt(abs(c)) * z * np.repeat([1.0, np.sign(c)], r)
        return np.sqrt(c) * z

    u, s, vh = np.linalg.svd((t @ stack).reshape(d, d))
    root = np.sqrt(s[:r])
    z0 = np.concatenate([u[:, :r] * root, vh[:r].T * root], 1)
    tol_abs = cfg.tol_fit * float(np.linalg.norm(yv))
    z, _, iters = _multistart(lambda z: (samples(z) - t, None), direction,
                              scale, z0, e.field, _STREAM_LOW_RANK, cfg,
                              tol_abs)
    est = z[:, :r] @ z[:, r:].T
    res = float(np.linalg.norm(stack @ est.conj().ravel() - yv))
    eq = None if truth is None else float(np.linalg.norm(est - np.asarray(truth)))
    return RecoveryOutcome(estimate=est, residual=res, equivalence_distance=eq,
                           iterations=iters, converged=res <= tol_abs)


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
    real = e.field == "real"

    def direction(x, r, qx):
        # complex signals are solved for in real coordinates (Re x, Im x)
        jac = 2.0 * (qx if real else np.concatenate([qx.real, qx.imag], 1))
        dz = np.linalg.lstsq(jac, -r, rcond=None)[0]
        return dz if real else dz[:e.d] + 1j * dz[e.d:]

    def scale(x):
        # c >= 0 fits c^2 x* Q_j x to t in least squares
        q = _misfit(forms, 0.0, x)[0]
        qq = float(q @ q)
        c2 = float(q @ target) / qq if qq > 0 else 0.0
        return math.sqrt(max(c2, 0.0)) * x

    x0 = np.linalg.eigh(np.tensordot(target, forms, 1))[1][:, -1]
    xhat, _, iters = _multistart(lambda x: _misfit(forms, target, x),
                                 direction, scale, x0, e.field,
                                 _STREAM_PHASE, cfg, tol_abs)
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
    q = _gauss(rng, (d, r), field) @ _gauss(rng, (r, d), field)
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
