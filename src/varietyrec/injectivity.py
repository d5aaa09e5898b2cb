"""Injectivity certification: exact tests, witness search, minor systems.

A sampling operator is injective on a signal variety exactly when its
kernel meets the difference variety only at zero.  :func:`certify`
dispatches between three regimes:

* the difference variety fills the ambient space, so a rank computation
  decides injectivity exactly;
* real rank-one quadratic sampling, where the subset-span (complement)
  property decides it exactly for m <= 24;
* everything else, where alternating projections between the kernel and
  the difference variety either produce an explicit unit-norm witness
  (refutation) or a positive residual margin (a probabilistic
  certificate: no finite numeric test can certify genericity).  A
  restart that comes close to the kernel is finished by Gauss-Newton on
  the difference variety's parametrization, which converges where the
  projections crawl at a linear rate; the margin comes from the
  projections alone.

Refutations are constructive: every witness is split into a collision
pair of distinct signals with identical samples.
"""

import dataclasses
import functools
import itertools
import math

import numpy as np

from .recovery import _factor_model, _gauss_newton, _misfit
from .sampling import _gauss, _tau, apply, derived_rng, lift_rank_one
from .varieties import (KIND_HERM_SIG, KIND_LOW_RANK, KIND_RANK_ONE_REAL,
                        KIND_SPARSE, _norm, _projection, difference_closure,
                        equivalence_distance, hermitize, is_hermitian, project)

CERTIFIED_EXACT = "certified_exact"
NO_WITNESS_FOUND = "no_witness_found"
REFUTED_WITH_WITNESS = "refuted_with_witness"
INCONCLUSIVE = "inconclusive"

VANISHES_ON_ALL_SAMPLES = "vanishes_on_all_samples"
NON_DEGENERATE = "non_degenerate"

_STREAM_RESTART = 20
_STREAM_MINOR = 21
_STREAM_PROBE = 22

_KERNEL_CUTOFF = 1e-10
# a restart hands its iterate to the Gauss-Newton finish the first time
# its residual is at most this share of the operator scale, and again at
# each hundredfold lower residual; each finish takes at most
# _FINISH_STEPS steps
_FINISH_AT = 1e-2
_FINISH_STEPS = 30
# the residual, relative to the operator scale, at which both the
# alternating projections and the finish stop
_RESIDUAL_FLOOR_REL = 1e-14
# most subsets per stacked rank test in complement_property
_RANK_BLOCK = 1024
# the sphere descent stops a row whose minor residual is at most this:
# two decades above the largest residual, 1.2e-30, of 1,000 unit
# matrices of rank exactly r per (d, r), 3 <= d <= 5, r <= 3, each read
# through the kernel coordinates the descent works in
_RESIDUAL_FLOOR = 1e-28

# why a witness-search restart ended (SearchResult.stops): it reached
# feasibility; its step fell to 1e-13; its residual fell to 1e-14 *
# scale; a start, projection or kernel step had norm zero; it ran its
# max_iters projections
STOP_REASONS = ("feasible", "fixed_point", "residual_floor", "zero_norm",
                "budget")

# why the minor system's polish ended (MinorSystemResult.polish_stop): its
# residual fell to _RESIDUAL_FLOOR; its tangent gradient vanished; no
# backtracked step lowered the residual; a step lowered it by less than
# 1e-13 of itself; it spent its 10 * max_iters steps
POLISH_STOPS = ("residual_floor", "flat_gradient", "no_accepted_step",
                "converged", "budget")


@dataclasses.dataclass(frozen=True)
class SearchConfig:
    """Knobs for witness search; restart r uses the derived stream (seed, r)."""

    restarts: int = 200
    max_iters: int = 500
    tol_feas: float = 1e-8
    margin_threshold: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.tol_feas) and self.tol_feas > 0):
            raise ValueError("tol_feas must be finite and positive, got "
                             f"{self.tol_feas}")
        if not (math.isfinite(self.margin_threshold)
                and self.margin_threshold >= 0):
            raise ValueError("margin_threshold must be finite and "
                             f"nonnegative, got {self.margin_threshold}")
        # restarts=0 is the empty budget, whose verdict is inconclusive
        for name in ("restarts", "max_iters"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got "
                                 f"{getattr(self, name)}")

    def tolerances(self):
        return {"tol_feas": self.tol_feas,
                "margin_threshold": self.margin_threshold,
                "kernel_cutoff": _KERNEL_CUTOFF}


@dataclasses.dataclass
class Witness:
    """Unit-Frobenius element of a difference variety annihilated by the
    sampling map (up to ``residual``).  It is a projection output or a
    point of the variety's parametrization (``U V^T``, ``u u* - v v*``,
    or a vector on a support of the variety's size), so variety
    membership is exact.  ``iterations`` counts the restart's
    alternating projections plus the steps of the finish that returned
    it, if one did."""

    element: np.ndarray
    residual: float
    restart: int
    iterations: int


@dataclasses.dataclass
class SearchResult:
    witness: Witness = None
    margin: float = None
    restarts_used: int = 0
    iterations: int = 0
    kernel_dim: int = 0
    scale: float = 0.0
    # restarts run, by STOP_REASONS; the counts sum to restarts_used
    stops: dict = dataclasses.field(default_factory=dict)
    # Gauss-Newton finishes tried, and their steps, across the restarts
    finish_attempts: int = 0
    finish_steps: int = 0


@dataclasses.dataclass
class InjectivityVerdict:
    status: str
    margin: float = None
    witness: Witness = None
    collision: tuple = None
    restarts_used: int = 0
    iterations: int = 0
    tolerances: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class MinorSystemResult:
    min_residual: float
    argmin: np.ndarray = None
    restarts: int = 0
    # accepted steps of the polish, its stop (POLISH_STOPS), and the
    # objective calls of the block descent and the polish together
    polish_steps: int = 0
    polish_stop: str = None
    evaluations: int = 0


@dataclasses.dataclass
class ProbeResult:
    status: str
    sample: np.ndarray = None
    value: complex = None
    samples_checked: int = 0


# ---------------------------------------------------------------------------
# complement property (exact test for real rank-one quadratic sampling)
# ---------------------------------------------------------------------------


def _block_tests(a, idx):
    """Which subsets of a block span R^d, and which fail with their
    complements: ``idx`` is an (n, s) array of sorted row subsets of
    ``a``; returns two boolean arrays of length n, ``(fails, spans)``.

    A side spans R^d when it has at least d rows and full rank.  One
    stacked ``matrix_rank`` decides each side for the whole block; it
    runs the same SVD with the same tolerance on every matrix as a
    single call does.  A complement is ranked only when its subset does
    not span.
    """
    (m, d), (n, s) = a.shape, idx.shape
    spans = np.zeros(n, dtype=bool)
    if s >= d:
        spans = np.linalg.matrix_rank(a[idx]) == d
    fails = ~spans
    k = np.count_nonzero(fails)
    if m - s < d or not k:
        return fails, spans
    out = np.ones((k, m), dtype=bool)
    out[np.arange(k)[:, None], idx[fails]] = False
    comp = np.nonzero(out)[1].reshape(k, m - s)
    fails[fails] = np.linalg.matrix_rank(a[comp]) < d
    return fails, spans


def _children(subset, m):
    """The subsets one index longer that follow ``subset`` in the
    lexicographic preorder.  The root ``()`` has the one child ``(0,)``:
    once the whole frame spans, a failing subset and its complement fail
    together, and the one holding index 0 comes first."""
    if not subset:
        return [(0,)] if m else []
    return [subset + (j,) for j in range(subset[-1] + 1, m)]


def _rank_ahead(a, walk, ranked, n):
    """Rank up to ``n`` untested subsets met by walking the preorder
    from the top of the stack ``walk`` (a list, consumed), and record
    ``(fails, spans)`` for each in ``ranked``.

    The walk descends only where the search will: into subsets of fewer
    than d rows, which cannot span, and into subsets known not to span.
    An untested subset of d or more rows holds its children back for a
    later block, and a subset known to fail ends the walk.
    """
    m, d = a.shape
    block = []
    while walk and len(block) < n:
        subset = walk.pop()
        known = ranked.get(subset)
        if known is None:
            block.append(subset)
        elif known[0]:
            break
        if len(subset) < d or (known is not None and not known[1]):
            walk.extend(reversed(_children(subset, m)))
    by_size = {}
    for subset in block:
        by_size.setdefault(len(subset), []).append(subset)
    for size, group in by_size.items():
        idx = np.array(group, dtype=np.intp).reshape(len(group), size)
        fails, spans = _block_tests(a, idx)
        ranked.update(zip(group, zip(fails.tolist(), spans.tolist())))


def complement_property(vectors):
    """Check that every index subset or its complement spans R^d.

    Returns ``(True, None)`` or ``(False, S)`` with ``S`` the
    lexicographically first failing subset (0-based, sorted tuple).
    Refuses m > 24 (the search may visit up to 2^(m-1) subsets) and
    non-finite frames; use witness search on the lifted problem beyond
    that.

    One depth-first search visits the subsets in lexicographic order
    (preorder, with ``S + (j,)`` for j > max(S) below ``S``) and stops
    at the first one that fails.  It visits only part of the tree:

    * after the root ``()`` (does the whole frame span?) it visits only
      subsets holding index 0, since a failing subset and its
      complement fail together and the one holding 0 comes first;
    * a spanning subset's subtree is skipped, since every superset of it
      spans and so cannot fail.

    Rank tests run ahead of the search, in blocks taken in search order
    (:func:`_rank_ahead`) and ranked by subset size as stacked SVDs
    (:func:`_block_tests`), so each matrix gets the test that a single
    ``matrix_rank`` call gives it.  The first block holds at most
    ``min(32, _RANK_BLOCK)`` subsets and each later one twice as many,
    up to ``_RANK_BLOCK``: a refutation stops after a few dozen rank
    tests, and a passing frame needs few LAPACK calls.
    """
    a = np.asarray(vectors, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a list of equal-length real vectors")
    m, _ = a.shape
    if m > 24:
        raise ValueError("m > 24: subset enumeration refused; "
                         "run witness_search on the rank-one lift instead")
    if not np.isfinite(a).all():
        raise ValueError("non-finite input")

    ranked = {}  # (fails, spans) of subsets the search has yet to visit
    n = min(32, _RANK_BLOCK)
    stack = [()]
    while stack:
        subset = stack.pop()
        if subset not in ranked:
            _rank_ahead(a, stack + [subset], ranked, n)
            n = min(2 * n, _RANK_BLOCK)
        fails, spans = ranked.pop(subset)
        if fails:
            return False, subset
        if not spans:
            stack.extend(reversed(_children(subset, m)))
    return True, None


# ---------------------------------------------------------------------------
# kernel coordinates
# ---------------------------------------------------------------------------
#
# Witness search runs in a real coordinate system matched to the variety:
#   real       the entries of the real ambient array
#   complex    Re and Im of each entry, interleaved, so that the
#              coordinates read as complex numbers are the entries
#   hermitian  Re + Im of a Hermitian matrix, the inverse of the
#              realification tau(a) = (a + a^T)/2 + i (a - a^T)/2 (a
#              Frobenius isometry from R^{d x d}); a herm_sig projection
#              is Hermitian up to rounding and is read the same way
# All three are isometries, so unit coordinate vectors are unit-Frobenius
# ambient elements and kernel projections are orthogonal projections.


def _variety_mode(w):
    if w.kind == KIND_HERM_SIG:
        return "hermitian"
    return "real" if w.field == "real" else "complex"


def _search_operators(e, w):
    """The operators, one per row, that a search on ``w`` reads from
    ``e``, once ``w`` fits ``e`` (rank_one_real needs a real ensemble).
    The quadratic kinds read a vector ensemble through the rank-one
    lifts of its rows and a matrix one through its operators' Hermitian
    parts; herm_sig refuses non-Hermitian operators, whose skew parts
    would sample what the search misses (a real x^T S x is zero).
    """
    quadratic = w.kind in (KIND_HERM_SIG, KIND_RANK_ONE_REAL)
    if w.d != e.d or (not quadratic and w.ambient[0] != e.shape):
        raise ValueError("variety ambient does not match ensemble shape")
    if w.kind == KIND_RANK_ONE_REAL and e.field != "real":
        raise ValueError("real quadratic sampling needs a real ensemble")
    if not quadratic:
        return e.operators
    if e.shape == "vector":
        return lift_rank_one(e.operators)
    if w.kind == KIND_HERM_SIG and not is_hermitian(e.operators).all():
        raise ValueError("herm_sig search needs Hermitian operators")
    return hermitize(e.operators)


def _stacked_rows(ops, mode):
    """Real matrix whose kernel (as coordinates) is ker of the sampling
    map of ``ops`` (:func:`_search_operators`).  The complex mode lays
    its coordinates out in [Re; Im] blocks here (see
    :func:`_search_space`)."""
    m = len(ops)
    a = ops.reshape(m, -1)
    if mode == "real":
        if np.iscomplexobj(a):
            return np.stack([a.real, a.imag], axis=1).reshape(2 * m, -1)
        return np.array(a, dtype=float)
    if mode == "complex":
        return np.stack([np.concatenate([a.real, a.imag], axis=1),
                         np.concatenate([a.imag, -a.real], axis=1)],
                        axis=1).reshape(2 * m, -1)
    return a.real + a.imag


def _kernel_basis(rows):
    """Orthonormal nullspace basis with singular-value cutoff relative to
    the largest singular value; also returns that largest value."""
    _, s, vt = np.linalg.svd(rows, full_matrices=True)
    smax = float(s[0]) if s.size else 0.0
    rank = int(np.sum(s > _KERNEL_CUTOFF * smax)) if smax > 0 else 0
    return vt[rank:].T.copy(), smax


def _finite_norm(x):
    """Euclidean norm of a real vector, refusing a non-finite one: the
    norm is finite exactly when every entry is, as long as the entries
    are far below the overflow threshold."""
    n = math.sqrt(x.dot(x))
    if not math.isfinite(n):
        raise ValueError("non-finite input")
    return n


def _search_space(ops, w):
    """The coordinates witness search iterates on, for the operators
    ``ops`` and the variety ``w``: ``(rows, basis, scale, ambient, coords)``.

    ``rows`` maps coordinates to the real and imaginary parts of the
    samples; ``basis`` is an orthonormal basis of its kernel and
    ``scale`` its largest singular value (:func:`_kernel_basis`).
    ``ambient(x)`` is the ambient array of a contiguous coordinate vector
    ``x``, a view of ``x`` except in the hermitian mode, and
    ``coords(q)`` the coordinate vector of a contiguous ambient array,
    a view of ``q`` except in the hermitian mode.

    The complex kernel basis is computed in the [Re; Im] block layout
    and its rows then moved to the interleaved one: a basis computed
    from the permuted rows would differ, and so would the seeded starts.
    """
    mode = _variety_mode(w)
    rows = _stacked_rows(ops, mode)
    basis, scale = _kernel_basis(rows)
    shape = w.ambient_shape()
    if mode == "hermitian":
        return (rows, basis, scale, lambda x: _tau(x.reshape(shape)),
                lambda q: (q.real + q.imag).reshape(-1))
    if mode == "complex":
        perm = np.arange(rows.shape[1]).reshape(2, -1).T.reshape(-1)
        rows, basis = rows[:, perm], basis[perm]
    dtype = float if mode == "real" else complex
    return (rows, basis, scale, lambda x: x.view(dtype).reshape(shape),
            lambda q: q.reshape(-1).view(float))


# ---------------------------------------------------------------------------
# witness search
# ---------------------------------------------------------------------------


def _finisher(ops, w, rows, scale, ambient, coords):
    """The Gauss-Newton finish of a witness-search restart, for the
    operators ``ops`` it reads and their :func:`_search_space`.

    ``finish(q0)`` takes the restart's unit iterate ``q0``, a point of
    ``w``, and fits ``A(q) = 0`` with ``<q0, q> = 1`` on ``w``'s
    parametrization, starting from ``q0``.  The last equation is scaled
    by ``scale``, so every row is in operator units.  By kind:

    * low_rank and rank_one_real: ``q = U V^T``, with ``[U | V]`` started
      from the truncated SVD of ``q0`` and stepped as
      :func:`~varietyrec.recovery._factor_model` steps;
    * herm_sig: ``q = u u* - v v*``, with ``u`` and ``v`` started from
      ``q0``'s extreme eigenpairs and stepped in the real coordinates
      ``(Re u, Im u, Re v, Im v)`` on :func:`~varietyrec.recovery._misfit`;
    * sparse: no steps; ``q`` is the null vector of ``rows`` restricted to
      the coordinates of ``q0``'s support (:func:`_null_vector`).

    Each run is :func:`~varietyrec.recovery._gauss_newton`, for at most
    ``_FINISH_STEPS`` steps, down to ``_RESIDUAL_FLOOR_REL * scale``.
    Every ``q`` lies on ``w`` by construction, so no projection is made.
    Returns ``(q, residual, steps)``: ``q`` normalized to unit Frobenius
    norm (and hermitized for herm_sig) with its sample residual
    ``|rows @ coords(q)|``, or ``(None, inf, steps)`` when ``q`` is zero
    or not finite.
    """
    mode = _variety_mode(w)
    tol_abs = _RESIDUAL_FLOOR_REL * scale

    def unit(q, steps):
        nq = _norm(q)
        if not (math.isfinite(nq) and nq > 0.0):
            return None, math.inf, steps
        q = q / nq
        if w.kind == KIND_HERM_SIG:
            q = hermitize(q)
        r = rows @ coords(q)
        return q, math.sqrt(r.dot(r)), steps

    if w.kind == KIND_SPARSE:
        per_entry = 1 if mode == "real" else 2

        def finish(q0):
            cols = np.flatnonzero(np.repeat(q0 != 0, per_entry))
            x = np.zeros(rows.shape[1])
            x[cols] = _null_vector(rows[:, cols], len(cols))
            return unit(ambient(x), 0)
        return finish

    if w.kind == KIND_HERM_SIG:
        target = np.append(np.zeros(len(ops)), scale)

        def finish(q0):
            q0 = hermitize(q0)
            qforms = np.concatenate([ops, scale * q0[None]])

            def misfit(z):
                ru, qu = _misfit(qforms, target, z[:, 0])
                rv, qv = _misfit(qforms, 0.0, z[:, 1])
                return ru - rv, (qu, qv)

            def direction(z, r, aux):
                qu, qv = aux
                jac = 2.0 * np.concatenate([qu.real, qu.imag, -qv.real,
                                            -qv.imag], 1)
                dz = np.linalg.lstsq(jac, -r, rcond=None)[0]
                dz = dz.reshape(2, 2, w.d)  # (u, v) by (Re, Im)
                return (dz[:, 0] + 1j * dz[:, 1]).T

            vals, vecs = np.linalg.eigh(q0)
            ip, im = int(np.argmax(vals)), int(np.argmin(vals))
            z0 = np.stack([math.sqrt(max(vals[ip], 0.0)) * vecs[:, ip],
                           math.sqrt(max(-vals[im], 0.0)) * vecs[:, im]], 1)
            _, z, steps = _gauss_newton(misfit, direction, z0,
                                        _FINISH_STEPS, tol_abs)
            u, v = z.T
            return unit(np.outer(u, u.conj()) - np.outer(v, v.conj()), steps)
        return finish

    # low_rank and rank_one_real; the real rows read real matrices' entries
    r = w.param
    b = rows if mode == "real" else ops.reshape(len(ops), -1).conj()
    target = np.append(np.zeros(len(b)), scale)

    def finish(q0):
        samples, direction = _factor_model(
            np.concatenate([b, scale * q0.conj().reshape(1, -1)]), r)
        u, s, vh = np.linalg.svd(q0)
        root = np.sqrt(s[:r])
        z0 = np.concatenate([u[:, :r] * root, vh[:r].T * root], 1)
        _, z, steps = _gauss_newton(lambda z: (samples(z) - target, None),
                                    direction, z0, _FINISH_STEPS, tol_abs)
        return unit(z[:, :r] @ z[:, r:].T, steps)
    return finish


def witness_search(e, w, cfg=None):
    """Search ker(sampling map) for a nonzero element of the variety ``w``,
    reading the operators of :func:`_search_operators`, so it takes
    every ensemble that :func:`certify` takes.

    Alternates orthogonal projection onto the precomputed kernel with the
    metric projection onto ``w``, renormalizing to unit Frobenius norm
    each iteration, over ``cfg.restarts`` independent seeded starts; each
    restart runs at most ``cfg.max_iters`` projections.
    Feasibility means sample residual at most ``tol_feas`` times the
    operator scale.  The returned margin is the smallest residual seen at
    any unit-norm variety point that the projections visited, across all
    restarts, and ``stops`` counts the restarts by why they ended
    (``STOP_REASONS``).

    The first time a restart's residual is at most ``_FINISH_AT`` times
    the scale, and again each time it falls a hundredfold below the
    last try, its iterate goes to a Gauss-Newton finish on ``w``'s
    parametrization (:func:`_finisher`), unless one of its projections
    was already feasible.  A finished point with a feasible residual is
    the restart's witness and counts as a ``feasible`` stop; otherwise
    the projections go on from where they were, as if no finish had been
    tried, so a search that finds no witness gives the margin, restarts
    and stops it would give without the finish.  A restart that is
    feasible without a finish returns its best projection.
    ``iterations`` (and ``Witness.iterations``) count the alternating
    projections plus the steps of the finish that returned the witness;
    ``finish_attempts`` and ``finish_steps`` count every finish tried.

    The loop runs on real coordinate vectors that share memory with the
    ambient arrays they stand for (:func:`_search_space`), with the
    projection looked up once (:func:`~varietyrec.varieties._projection`).
    A non-finite start or kernel step, and so a non-finite projection
    input, raises ``ValueError``.
    """
    return _witness_search(_search_operators(e, w), w, cfg)


def _witness_search(ops, w, cfg=None):
    """:func:`witness_search` on the operators ``ops`` that
    :func:`_search_operators` read for ``w``."""
    cfg = cfg or SearchConfig()
    rows, basis, scale, ambient, coords = _search_space(ops, w)
    kdim = basis.shape[1]
    stops = dict.fromkeys(STOP_REASONS, 0)
    if kdim == 0:
        return SearchResult(kernel_dim=0, scale=scale, stops=stops)

    proj = _projection(w)
    finish = _finisher(ops, w, rows, scale, ambient, coords)
    basis_t = basis.T.copy()
    feas = cfg.tol_feas * max(scale, 1e-300)
    margin = math.inf
    total_iters = finish_attempts = finish_steps = 0
    witness = None
    for ridx in range(cfg.restarts):
        rng = derived_rng(cfg.seed, _STREAM_RESTART, ridx)
        x = basis @ rng.standard_normal(kdim)
        nx = _finite_norm(x)
        if nx == 0.0:
            stops["zero_norm"] += 1
            continue
        x /= nx
        best_res = math.inf
        best_q = None
        finish_at = _FINISH_AT * scale
        witness = None
        stop = "budget"
        for iters in range(1, cfg.max_iters + 1):
            total_iters += 1
            q = proj(ambient(x), w)
            flat = q.reshape(-1).view(float)
            nq = math.sqrt(flat.dot(flat))
            if nq < 1e-300:
                stop = "zero_norm"
                break
            flat /= nq
            xv = coords(q)
            r = rows @ xv
            res = math.sqrt(r.dot(r))
            if res < best_res:
                best_res, best_q = res, q
            margin = min(margin, res)
            if best_res > feas and res <= finish_at:
                finish_at = _FINISH_AT * res
                q_fin, res_fin, steps = finish(q)
                finish_attempts += 1
                finish_steps += steps
                if res_fin <= feas:
                    total_iters += steps
                    witness = Witness(element=q_fin, residual=res_fin,
                                      restart=ridx, iterations=iters + steps)
                    break
            if res <= _RESIDUAL_FLOOR_REL * scale:
                stop = "residual_floor"
                break
            x_new = basis @ (basis_t @ xv)
            nn = _finite_norm(x_new)
            if nn < 1e-300:
                stop = "zero_norm"
                break
            x_new /= nn
            step = x_new - x
            x = x_new
            if math.sqrt(step.dot(step)) <= 1e-13:
                stop = "fixed_point"
                break
        if witness is None and best_res <= feas:
            if w.kind == KIND_HERM_SIG:
                best_q = hermitize(best_q)
            witness = Witness(element=best_q, residual=best_res,
                              restart=ridx, iterations=iters)
        if witness is not None:
            stops["feasible"] += 1
            break
        stops[stop] += 1
    # each restart run ends in one stop
    return SearchResult(witness=witness, margin=float(margin),
                        restarts_used=sum(stops.values()),
                        iterations=total_iters, kernel_dim=kdim, scale=scale,
                        stops=stops, finish_attempts=finish_attempts,
                        finish_steps=finish_steps)


# ---------------------------------------------------------------------------
# collisions
# ---------------------------------------------------------------------------


def witness_to_collision(q, signal):
    """Split a difference-variety witness into two signal-variety members
    with identical samples.

    sparse and low_rank: x is the projection of q onto the signal
    variety (its k largest entries, or its leading r singular triples)
    and y = x - q is the negated remainder, a member too because q lies
    in the difference variety.  herm_sig: x, y from the signed
    eigenpairs.  rank_one_real: with q = u v^T, solve x - y = 4u,
    x + y = v.  A zero q raises ``ValueError``.
    """
    q = np.asarray(q)
    if signal.kind in (KIND_SPARSE, KIND_LOW_RANK):
        if not q.any():
            raise ValueError("zero witness")
        x = project(q, signal)
        return x, x - q
    if signal.kind == KIND_HERM_SIG:
        vals, vecs = np.linalg.eigh(hermitize(q))
        ip, im = int(np.argmax(vals)), int(np.argmin(vals))
        lam_p = max(float(vals[ip]), 0.0)
        lam_m = max(float(-vals[im]), 0.0)
        if lam_p == 0.0 and lam_m == 0.0:
            raise ValueError("zero witness")
        x = math.sqrt(lam_p) * vecs[:, ip]
        y = math.sqrt(lam_m) * vecs[:, im]
        return x, y
    # rank_one_real
    u, s, vh = np.linalg.svd(np.real(q), full_matrices=False)
    if s[0] == 0.0:
        raise ValueError("zero witness")
    uu = s[0] * u[:, 0]
    vv = vh[0]
    return 0.5 * (vv + 4.0 * uu), 0.5 * (vv - 4.0 * uu)


def collision_residual(e, signal, x, y):
    """Sample disagreement of a collision pair (lifted for the quadratic
    kinds); small values confirm the pair is indistinguishable.  A vector
    ensemble samples the lifts through its rows' lifts, with the product
    :func:`~varietyrec.sampling.apply` takes on the lifted ensemble."""
    if signal.kind in (KIND_HERM_SIG, KIND_RANK_ONE_REAL):
        x, y = lift_rank_one(x), lift_rank_one(y)
        if signal.kind == KIND_RANK_ONE_REAL:
            x, y = x.real, y.real
        if e.shape == "vector":
            a = lift_rank_one(e.operators).reshape(e.m, -1)
            gap = a @ x.conj().ravel() - a @ y.conj().ravel()
            # complex128, as apply gives the samples: the norm keeps its bits
            return float(np.linalg.norm(gap.astype(complex)))
    return float(np.linalg.norm(apply(e, x).y - apply(e, y).y))


def collision_is_distinct(x, y, signal, tol=1e-8):
    """True when the two collision signals are not equivalent."""
    if signal.kind in (KIND_HERM_SIG, KIND_RANK_ONE_REAL):
        field = "complex" if signal.kind == KIND_HERM_SIG else "real"
        scale = max(np.linalg.norm(x), np.linalg.norm(y), 1.0)
        return equivalence_distance(x, y, field) > tol * scale
    return float(np.linalg.norm(np.asarray(x) - np.asarray(y))) > tol


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def _null_vector(rows, d):
    """A unit vector orthogonal to every row (rows may be empty)."""
    if len(rows) == 0:
        return np.eye(1, d)[0]
    _, _, vt = np.linalg.svd(rows, full_matrices=True)
    return vt[-1]


def _rank_one_vectors(e):
    """Extract the frame, rows a_j, from a real symmetric PSD rank-one
    matrix ensemble, or None if any operator fails that description."""
    if not is_hermitian(e.operators).all():
        return None
    vals, vecs = np.linalg.eigh(e.operators)
    lam, rest = vals[:, -1], np.abs(vals[:, :-1]).T  # rest is empty at d = 1
    if np.any(lam < 0) or np.any(rest > 1e-10 * np.maximum(lam, 1.0)):
        return None
    # a zero operator gives a +0.0 row, whatever the sign of its eigenvector
    return np.where(lam[:, None] > 0, np.sqrt(lam)[:, None] * vecs[..., -1],
                    0.0)


def _decided(signal, cfg, witness=None, restarts_used=0, iterations=0):
    """Verdict of a case that an exact test or a witness decided:
    ``refuted_with_witness`` with ``witness`` and the collision pair
    split from it, or ``certified_exact`` when there is no witness."""
    collision = (None if witness is None
                 else witness_to_collision(witness.element, signal))
    return InjectivityVerdict(
        status=CERTIFIED_EXACT if witness is None else REFUTED_WITH_WITNESS,
        witness=witness, collision=collision, restarts_used=restarts_used,
        iterations=iterations, tolerances=cfg.tolerances())


def certify(e, signal, cfg=None):
    """Decide injectivity of the sampling map on a signal variety.

    Dispatch: an exact kernel-nullity check when the difference variety
    is the full ambient space; the complement property when the signal is
    the real rank-one quadratic lift and m <= 24; otherwise witness
    search on the difference variety.  Refuted verdicts carry a witness
    and a collision pair.  Every regime reads the operators of
    :func:`_search_operators`, which checks that ``signal`` fits ``e``.
    """
    cfg = cfg or SearchConfig()
    w = difference_closure(signal)
    ops = _search_operators(e, w)

    if w.is_full_space():
        rows, basis, _, ambient, _ = _search_space(ops, w)
        if basis.shape[1] == 0:
            return _decided(signal, cfg)
        x = basis[:, 0].copy()
        return _decided(signal, cfg, Witness(element=ambient(x),
                                             residual=_norm(rows @ x),
                                             restart=0, iterations=0))

    vectors = None
    if signal.kind == KIND_RANK_ONE_REAL and e.m <= 24:
        vectors = e.operators if e.shape == "vector" else _rank_one_vectors(e)
    if vectors is not None:
        ok, subset = complement_property(vectors)
        if ok:
            return _decided(signal, cfg)
        comp = [j for j in range(e.m) if j not in subset]
        u = _null_vector(vectors[list(subset)], e.d)
        v = _null_vector(vectors[comp], e.d)
        q = np.outer(u, v)
        q = q / np.linalg.norm(q)
        # complex128, as apply gives the samples: the residual keeps its bits
        y = (ops.reshape(e.m, -1) @ q.ravel()).astype(complex)
        return _decided(signal, cfg, Witness(element=q, residual=_norm(y),
                                             restart=0, iterations=0))

    result = _witness_search(ops, w, cfg)
    if result.kernel_dim == 0 or result.witness is not None:
        return _decided(signal, cfg, result.witness, result.restarts_used,
                        result.iterations)
    # a search in which no restart reached a residual gives no evidence
    margin = None if math.isinf(result.margin) else result.margin
    status = (NO_WITNESS_FOUND
              if margin is not None and margin > cfg.margin_threshold
              else INCONCLUSIVE)
    return InjectivityVerdict(status=status, margin=margin,
                              restarts_used=result.restarts_used,
                              iterations=result.iterations,
                              tolerances=cfg.tolerances())


# ---------------------------------------------------------------------------
# minor residual and the rank-2 kernel polynomial system
# ---------------------------------------------------------------------------


def minor_residual(q, r):
    """Sum of squared magnitudes of all (r+1) x (r+1) minors of ``q``;
    zero exactly when rank(q) <= r."""
    q = np.asarray(q)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("expected a square matrix")
    r = int(r)
    if r < 0:
        raise ValueError("rank bound must be nonnegative")
    q = q.astype(np.result_type(q.dtype, float), copy=False)
    _, minors = _minors(q.ravel(), q.shape[0], r + 1)
    return float(np.sum(np.abs(minors) ** 2))


def _combination_positions(d, k):
    """The k-subsets of range(d) in lexicographic order, as a (n, k)
    array, and for each subset and each of its k places the position of
    the (k-1)-subset left when that place is dropped."""
    combos = list(itertools.combinations(range(d), k))
    position = {c: n for n, c in
                enumerate(itertools.combinations(range(d), k - 1))}
    drop = [[position[c[:i] + c[i + 1:]] for i in range(k)] for c in combos]
    return (np.array(combos, dtype=np.intp).reshape(-1, k),
            np.array(drop, dtype=np.intp).reshape(-1, k))


@functools.lru_cache(maxsize=None)
def _expansion(d, k):
    """Index arrays expanding every k x k minor of a d x d matrix along
    the first row of its submatrix, for k >= 2.

    The k x k minors are ordered by (row subset, column subset), so the
    1 x 1 minors are the entries in row-major order.  Minor n is
    ``sum_j qs[entry[n, j]] * prev[sub[n, j]]``, with ``prev`` the
    (k-1) x (k-1) minors and ``qs`` the flattened matrix followed by its
    negation: the sign (-1)^j of the expansion is an index offset.
    """
    combos, drop = _combination_positions(d, k)
    n, subs = len(combos), math.comb(d, k - 1)
    odd = np.arange(k) % 2 * d * d
    entry = combos[:, None, :1] * d + combos[None, :, :] + odd
    sub = drop[:, None, :1] * subs + drop[None, :, :]
    return entry.reshape(n * n, k), sub.reshape(n * n, k)


@functools.lru_cache(maxsize=None)
def _cofactors(d, k):
    """Index arrays of the gradient of the squared k x k minors.

    Entry (a, b) of a d x d matrix lies in the minors with a in the row
    subset and b in the column subset, C(d-1, k-1)^2 of them.  For entry
    a*d + b, ``minor[a*d + b, t]`` is such a minor and ``cof[a*d + b, t]``
    its cofactor at (a, b): a (k-1) x (k-1) minor indexed into those
    minors followed by their negation, which carries the sign
    (-1)^(i+j) of row place i and column place j.
    """
    combos, drop = _combination_positions(d, k)
    n, subs = len(combos), math.comb(d, k - 1)
    # per entry index a: the subsets holding it, its place, what is left
    holds = [np.nonzero(combos == a) for a in range(d)]
    subset = np.array([h[0] for h in holds], dtype=np.intp).reshape(d, -1)
    place = np.array([h[1] for h in holds], dtype=np.intp).reshape(d, -1)
    left = drop[subset, place]
    minor = subset[:, None, :, None] * n + subset[None, :, None, :]
    cof = (left[:, None, :, None] * subs + left[None, :, None, :]
           + (place[:, None, :, None] + place[None, :, None, :]) % 2
           * subs * subs)
    return minor.reshape(d * d, -1), cof.reshape(d * d, -1)


def _minors(qf, d, size):
    """The (size-1) x (size-1) and size x size minors of flattened d x d
    matrices ``qf`` (shape (..., d*d)), by Laplace expansion from the
    entries up; the 0 x 0 minor is 1."""
    prev, cur = np.ones(qf.shape[:-1] + (1,), qf.dtype), qf
    # vecdot conjugates its first argument: conjugate it back
    qs = np.concatenate([qf, -qf], axis=-1).conj()
    for k in range(2, size + 1):
        entry, sub = _expansion(d, k)
        prev, cur = cur, np.vecdot(qs.take(entry, axis=-1),
                                   cur.take(sub, axis=-1))
    return prev, cur


def _minor_residual_and_grad(q, r):
    """Residual and its gradient for real matrices ``q`` of shape
    (..., d, d): f of shape (...) and the gradient of shape (..., d, d).

    The gradient of det(M) is its cofactor matrix, and every cofactor of
    an (r+1)-minor of ``q`` is a signed r-minor of ``q``.  The Laplace
    recursion that builds the (r+1)-minors from the entries passes
    through the r-minors, so one exact recursion, with no LU
    factorization, gives the residual and every cofactor.
    """
    d = q.shape[-1]
    sub, minors = _minors(q.reshape(q.shape[:-2] + (d * d,)), d, r + 1)
    minor, cof = _cofactors(d, r + 1)
    signed = np.concatenate([sub, -sub], axis=-1)
    grad = 2.0 * np.vecdot(minors.take(minor, axis=-1),
                           signed.take(cof, axis=-1))
    return np.vecdot(minors, minors), grad.reshape(q.shape)


def _armijo(fg, t, f, g, g_tan, gn2, eta, tries):
    """One backtracking step per row from ``t`` along ``-g_tan``.

    A row accepts the first of ``tries`` steps, halving ``eta`` after
    each, that lowers ``f`` by at least ``1e-4 * eta * gn2``; only the
    rows still backtracking are evaluated again.  Returns the new rows,
    residuals and gradients, and which rows accepted a step; a row that
    accepted none keeps its ``t``, ``f`` and ``g``.
    """
    t_new = t - eta[:, None] * g_tan
    t_new /= np.sqrt(np.vecdot(t_new, t_new))[:, None]
    f_new, g_new = fg(t_new)
    ok = f_new <= f - 1e-4 * eta * gn2
    accepted = np.count_nonzero(ok)
    if accepted == len(ok):
        return t_new, f_new, g_new, ok
    # when no row accepted, the slice passes the whole block on uncopied
    rest = ~ok if accepted else slice(None)
    back = t[rest], f[rest], g[rest], ok[rest]
    if tries > 1:
        back = _armijo(fg, *back[:3], g_tan[rest], gn2[rest],
                       0.5 * eta[rest], tries - 1)
    t_new[rest], f_new[rest], g_new[rest], ok[rest] = back
    return t_new, f_new, g_new, ok


def _sphere_descent(fg, t, max_iters):
    """Projected gradient descent with backtracking on the unit sphere,
    for a block of starts ``t`` of shape (R, kdim) advanced together.

    ``fg`` maps an (n, kdim) block to residuals (n,) and gradients
    (n, kdim).  Each row keeps its own tangent gradient, its own Armijo
    step (:func:`_armijo`, up to 60 halvings) and its own stops: a
    tangent gradient with squared norm at most 1e-36, no accepted step,
    a residual at most ``_RESIDUAL_FLOOR`` (1e-28, above the roundoff of
    the residual at a unit matrix of rank r), or ``max_iters`` steps.  A
    stopped row leaves the block, and rows never mix, so each row ends
    where it would end alone.  Returns the final rows and their
    residuals.
    """
    t = np.asarray(t, dtype=float)
    f, g = fg(t)
    t_out, f_out = t.copy(), f.copy()
    rows = np.arange(len(t))  # the output row of each row still descending
    going = np.ones(len(t), dtype=bool)
    for it in range(max_iters + 1):
        g_tan = g - np.vecdot(g, t)[:, None] * t
        gn2 = np.vecdot(g_tan, g_tan)
        going &= gn2 > 1e-36
        if np.count_nonzero(going) < len(going):
            t_out[rows], f_out[rows] = t, f
            rows, t, f, g, g_tan, gn2 = (
                a[going] for a in (rows, t, f, g, g_tan, gn2))
        if it == max_iters or not rows.size:
            break
        eta = np.minimum(1.0, 2.0 * np.maximum(f, 1e-300) / gn2)
        t, f, g, ok = _armijo(fg, t, f, g, g_tan, gn2, eta, 60)
        going = ok & (f > _RESIDUAL_FLOOR)
    t_out[rows], f_out[rows] = t, f
    return t_out, f_out


def _sphere_bfgs(fg, t, max_iters):
    """Riemannian BFGS on the unit sphere from one unit row ``t`` (kdim,).

    The tangent gradient is ``gr = g - (g.t) t``.  The first step, and
    any step after a reset, is the gradient step of
    :func:`_sphere_descent`, ``-min(1, 2f/|gr|^2) gr``; later steps go
    along ``d = -P H gr``, with ``H`` the BFGS inverse-Hessian
    approximation and ``P`` the tangent projection at ``t``, and reset to
    the gradient step when ``d.gr >= 0``.  Each step backtracks from a
    unit length (up to 60 halvings, sufficient decrease
    ``1e-4 * eta * d.gr``) and retracts by normalizing.  The update uses
    ``s`` and ``y`` projected onto the new tangent space, which
    transports the old gradient by projection; it is skipped when
    ``s.y <= 0``, and the first one scales ``H`` to ``(s.y)/(y.y) I``
    (Huang, Gallivan and Absil, SIAM J. Optim. 2015).

    Stops, in the order of ``POLISH_STOPS``: a residual at most
    ``_RESIDUAL_FLOOR``, ``|gr|^2 <= 1e-36``, no accepted step, an
    accepted step lowering ``f`` by less than ``1e-13 * f``, or
    ``max_iters`` steps.  Returns the final row, its residual, the
    accepted steps and the stop.
    """
    def tangent(v, at):
        return v - (v @ at) * at

    f, g = fg(t[None])
    f, gr, h = f[0], tangent(g[0], t), None
    for steps in range(max_iters + 1):
        gn2 = gr @ gr
        if f <= _RESIDUAL_FLOOR:
            return t, f, steps, "residual_floor"
        if gn2 <= 1e-36:
            return t, f, steps, "flat_gradient"
        if steps == max_iters:
            return t, f, steps, "budget"
        if h is not None:
            d = tangent(-(h @ gr), t)
            if d @ gr >= 0:
                h = None
        if h is None:
            d = -min(1.0, 2.0 * f / gn2) * gr
        slope, eta = 1e-4 * (d @ gr), 1.0
        for _ in range(60):
            t_new = t + eta * d
            t_new /= math.sqrt(t_new @ t_new)
            f_new, g_new = fg(t_new[None])
            if f_new[0] <= f + eta * slope:
                break
            eta *= 0.5
        else:
            return t, f, steps, "no_accepted_step"
        f_new, gr_new = f_new[0], tangent(g_new[0], t_new)
        s, y = tangent(t_new - t, t_new), gr_new - tangent(gr, t_new)
        sy = s @ y
        if sy > 0:
            if h is None:
                h = (sy / (y @ y)) * np.eye(len(t))
            hy = h @ y
            h += ((sy + y @ hy) * np.outer(s, s) / sy
                  - np.outer(hy, s) - np.outer(s, hy)) / sy
        converged = f - f_new < 1e-13 * f
        t, f, gr = t_new, f_new, gr_new
        if converged:
            return t, f, steps + 1, "converged"


def _minor_objective(basis, d, r):
    """The rank-``r`` minor residual on kernel coordinates: maps a block
    ``t`` of shape (n, kdim) to the residuals (n,) of the d x d matrices
    ``basis @ t[i]`` and their gradients (n, kdim).

    The products are stacked, one BLAS call per row, so that a row's
    arithmetic is the same in a block of any size.
    """
    basis_t = basis.T.copy()

    def fg(t):
        q = np.matmul(t[:, None], basis_t).reshape(-1, d, d)
        f, grad = _minor_residual_and_grad(q, r)
        return f, np.matmul(grad.reshape(-1, 1, d * d), basis).reshape(t.shape)
    return fg


def verify_kernel_minor_system(e, restarts=500, max_iters=250, seed=0, r=2):
    """Minimize the rank-``r`` minor residual over the unit sphere of
    ker(sampling map) by seeded multistart descent.

    Restart ``ridx`` starts from ``derived_rng(seed, 21, ridx)``; all
    restarts advance as one block, each row with its own Armijo step
    (see :func:`_sphere_descent`).  The best row (the first at the
    lowest residual) is then polished alone by Riemannian BFGS
    (:func:`_sphere_bfgs`) for at most ``10 * max_iters`` steps, stopping
    at ``_RESIDUAL_FLOOR``, at a vanishing tangent gradient, when no
    backtracked step lowers the residual, when a step lowers it by less
    than ``1e-13`` of itself, or at the budget; ``polish_steps``,
    ``polish_stop`` and ``evaluations`` record it.  The result is the
    lower of the best row and the polished row.  A minimum
    indistinguishable from zero exhibits a
    bounded-rank kernel element; a clearly positive minimum is numerical
    evidence that the kernel meets the rank variety only at zero.
    Returns the sentinel ``(inf, None)`` when the kernel is trivial.
    """
    if e.shape != "matrix" or e.field != "real":
        raise ValueError("expected a real matrix ensemble")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {max_iters}")
    basis, _ = _kernel_basis(_stacked_rows(e.operators, "real"))
    kdim = basis.shape[1]
    if kdim == 0:
        return MinorSystemResult(min_residual=math.inf, argmin=None, restarts=0)
    objective = _minor_objective(basis, e.d, r)
    evaluations = 0

    def fg(t):
        nonlocal evaluations
        evaluations += 1
        return objective(t)
    starts = np.array([derived_rng(seed, _STREAM_MINOR, ridx)
                       .standard_normal(kdim) for ridx in range(restarts)])
    starts /= np.linalg.norm(starts, axis=1)[:, None]
    t, f = _sphere_descent(fg, starts, max_iters)
    best = int(np.argmin(f))
    best_f, best_t = f[best], t[best]
    t, f, steps, stop = _sphere_bfgs(fg, best_t, 10 * max_iters)
    if f < best_f:
        best_f, best_t = f, t
    argmin = (basis @ best_t).reshape(e.d, e.d)
    return MinorSystemResult(min_residual=float(best_f), argmin=argmin,
                             restarts=restarts, polish_steps=steps,
                             polish_stop=stop, evaluations=evaluations)


# ---------------------------------------------------------------------------
# admissibility probe
# ---------------------------------------------------------------------------


def admissibility_probe(variety_sampler, functional, n_samples, seed=0):
    """Sample the variety and evaluate ``l(X) = Tr(functional X^T)``.

    Returns ``non_degenerate`` with the first sample where the functional
    clearly does not vanish, otherwise ``vanishes_on_all_samples`` (the
    probe's evidence that the whole variety sits inside the hyperplane).
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    functional = np.asarray(functional)
    nf = float(np.linalg.norm(functional))
    if nf == 0.0:
        raise ValueError("functional must be nonzero")
    rng = derived_rng(seed, _STREAM_PROBE)
    for i in range(int(n_samples)):
        x = variety_sampler(rng)
        val = complex(np.sum(functional * x))
        if abs(val) > 1e-10 * float(np.linalg.norm(x)) * nf:
            return ProbeResult(status=NON_DEGENERATE, sample=x, value=val,
                               samples_checked=i + 1)
    return ProbeResult(status=VANISHES_ON_ALL_SAMPLES,
                       samples_checked=int(n_samples))


def symmetric_sampler(d, field="complex"):
    """Sampler of random symmetric d x d matrices, ``G + G^T``."""
    def sample(rng):
        g = _gauss(rng, (d, d), field)
        return g + g.T
    return sample


def dense_sampler(d, field="complex"):
    """Sampler of unconstrained random d x d matrices."""
    return lambda rng: _gauss(rng, (d, d), field)
