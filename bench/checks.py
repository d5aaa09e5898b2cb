"""Correctness checks computed apart from varietyrec.

Every function here uses numpy alone: the samples, ranks, sparsity
counts, minor sums and distances are recomputed from the raw operator
arrays, so a fault in the program's own helpers (``apply``,
``membership``, ``collision_residual``, ``equivalence_distance``) cannot
hide a wrong answer.  Each check returns a list of problems; an empty
list means the result is correct.

Operators arrive as one stacked array: ``(m, d)`` for vector ensembles,
``(m, d, d)`` for matrix ensembles.  Vector ensembles sample
``vdot(a_j, x)``, matrix ensembles ``Tr(A_j X*)``, and the quadratic
kinds sample the rank-one lift, ``|<a_j, x>|^2``.
"""

import numpy as np

# a witness must vanish under the sampling map to this share of the
# operators' Frobenius norm; a random unit element gives about 0.1-0.5
KERNEL_RTOL = 1e-7
# collision samples must agree to this share of their own scale
COLLISION_RTOL = 1e-7
# two signals are distinct when they differ by more than this share
DISTINCT_RTOL = 1e-6
# singular values below this share of the largest count as zero
RANK_RTOL = 1e-9
RECOVERY_RTOL = 1e-6


def sample_linear(ops, x):
    """Linear samples of ``x``: ``vdot(a_j, x)`` or ``Tr(A_j X*)``."""
    x = np.asarray(x)
    if ops.ndim == 2:
        return np.einsum("jk,k->j", ops.conj(), x)
    return np.einsum("jab,ab->j", ops, x.conj())


def sample_quadratic(vectors, x):
    """Quadratic samples ``|<a_j, x>|^2`` of a vector signal."""
    return np.abs(np.asarray(vectors).conj() @ np.asarray(x)) ** 2


def sample_lifted(vectors, q):
    """Samples ``a_j* Q a_j`` of a matrix under the rank-one lifts a_j a_j*."""
    a = np.asarray(vectors)
    return np.einsum("ja,ab,jb->j", a.conj(), np.asarray(q), a)


def numeric_rank(x):
    s = np.linalg.svd(np.asarray(x), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


def support_size(x):
    a = np.abs(np.asarray(x)).ravel()
    top = float(a.max()) if a.size else 0.0
    return int(np.sum(a > RANK_RTOL * top)) if top > 0 else 0


def phase_distance(x, y, field):
    """min over |c| = 1 of ||x - c y|| (c = +-1 over the reals)."""
    x = np.asarray(x, dtype=complex).ravel()
    y = np.asarray(y, dtype=complex).ravel()
    if field == "real":
        return float(min(np.linalg.norm(x - y), np.linalg.norm(x + y)))
    inner = np.sum(y.conj() * x)
    c = inner / abs(inner) if abs(inner) > 0 else 1.0
    return float(np.linalg.norm(x - c * y))


def elementary_symmetric(values, k):
    """e_k of the given numbers, by the product-expansion recurrence."""
    e = [1.0] + [0.0] * k
    for v in values:
        for j in range(k, 0, -1):
            e[j] += e[j - 1] * float(v)
    return e[k]


def in_variety(x, kind, d, param):
    """Problems with ``x`` as a member of the named variety."""
    x = np.asarray(x)
    if kind == "sparse":
        if x.shape != (d,):
            return [f"sparse member has shape {x.shape}"]
        n = support_size(x)
        return [] if n <= param else [f"{n} nonzeros, bound {param}"]
    if x.shape != (d, d):
        return [f"matrix member has shape {x.shape}"]
    if kind == "low_rank":
        r = numeric_rank(x)
        return [] if r <= param else [f"rank {r}, bound {param}"]
    if kind == "rank_one_real":
        if np.any(np.imag(x) != 0):
            return ["real rank-one member has imaginary part"]
        r = numeric_rank(x)
        return [] if r <= 1 else [f"rank {r}, bound 1"]
    if kind == "herm_sig":
        nrm = float(np.linalg.norm(x))
        if np.linalg.norm(x - x.conj().T) > RANK_RTOL * nrm:
            return ["signature member is not Hermitian"]
        vals = np.linalg.eigvalsh(0.5 * (x + x.conj().T))
        pos = int(np.sum(vals > RANK_RTOL * nrm))
        neg = int(np.sum(vals < -RANK_RTOL * nrm))
        if pos > 1 or neg > 1:
            return [f"signature ({pos}, {neg}) exceeds (1, 1)"]
        return []
    raise ValueError(f"unknown kind {kind!r}")


def check_no_witness(status, margin, restarts_used, restarts, threshold):
    """An injective input must exhaust the search with a clear margin."""
    if status != "no_witness_found":
        return [f"status {status}, expected no_witness_found"]
    out = []
    if not (margin is not None and margin > threshold):
        out.append(f"margin {margin} not above {threshold}")
    if restarts_used != restarts:
        out.append(f"{restarts_used} of {restarts} restarts used")
    return out


def check_exact(status):
    if status != "certified_exact":
        return [f"status {status}, expected certified_exact"]
    return []


def check_refutation(ops, signal, status, witness, collision):
    """Re-verify a refutation from the operators alone.

    ``ops`` are the operators that sample the signal (vectors for the
    quadratic kinds), ``signal`` is ``(kind, d, param, field)``.  The
    witness must be a unit element of the difference variety that the
    sampling map sends to zero; the collision must be two members of the
    signal variety with equal samples that are not equivalent.
    """
    kind, d, param, field = signal
    if status != "refuted_with_witness":
        return [f"status {status}, expected refuted_with_witness"]
    if witness is None or collision is None:
        return ["refutation without witness or collision"]
    ops = np.asarray(ops)
    q = np.asarray(witness)
    out = []
    nq = float(np.linalg.norm(q))
    if abs(nq - 1.0) > 1e-9:
        out.append(f"witness norm {nq}")
    quadratic = kind in ("herm_sig", "rank_one_real")
    diff_param = param if quadratic else min(2 * param, d)
    out += ["witness: " + p for p in in_variety(q, kind, d, diff_param)]
    scale = float(np.linalg.norm(ops))
    if quadratic:
        res = float(np.linalg.norm(sample_lifted(ops, q)))
        scale = scale ** 2
    else:
        res = float(np.linalg.norm(sample_linear(ops, q)))
    if not res <= KERNEL_RTOL * scale:
        out.append(f"witness sample norm {res:.3e} vs scale {scale:.3e}")

    x, y = (np.asarray(v) for v in collision)
    if quadratic:
        for v, name in ((x, "x"), (y, "y")):
            if v.shape != (d,):
                out.append(f"collision {name} has shape {v.shape}")
        if out:
            return out
        if kind == "rank_one_real" and (np.any(np.imag(x) != 0)
                                        or np.any(np.imag(y) != 0)):
            out.append("real collision has imaginary part")
        sx, sy = sample_quadratic(ops, x), sample_quadratic(ops, y)
        big = max(float(np.linalg.norm(x)), float(np.linalg.norm(y)))
        sample_scale = scale * big ** 2
        dist = phase_distance(x, y, "real" if kind == "rank_one_real"
                              else "complex")
    else:
        for v, name in ((x, "x"), (y, "y")):
            out += [f"collision {name}: " + p
                    for p in in_variety(v, kind, d, param)]
        sx, sy = sample_linear(ops, x), sample_linear(ops, y)
        big = max(float(np.linalg.norm(x)), float(np.linalg.norm(y)))
        sample_scale = scale * big
        dist = float(np.linalg.norm(x - y))
    gap = float(np.linalg.norm(sx - sy))
    if not gap <= COLLISION_RTOL * sample_scale:
        out.append(f"collision samples differ by {gap:.3e}")
    if not dist > DISTINCT_RTOL * big:
        out.append(f"collision pair equivalent (distance {dist:.3e})")
    return out


def check_minor(ops, r, min_residual, argmin):
    """Minor-descent result: a unit kernel element whose residual is the
    Cauchy-Binet sum e_{r+1}(sigma^2) of its squared (r+1)-minors."""
    if argmin is None:
        return ["no argmin"]
    q = np.asarray(argmin)
    out = []
    nq = float(np.linalg.norm(q))
    if abs(nq - 1.0) > 1e-9:
        out.append(f"argmin norm {nq}")
    res = float(np.linalg.norm(sample_linear(np.asarray(ops), q)))
    if not res <= KERNEL_RTOL * float(np.linalg.norm(ops)):
        out.append(f"argmin sample norm {res:.3e}")
    s = np.linalg.svd(q, compute_uv=False)
    want = elementary_symmetric(s ** 2, r + 1)
    if not abs(min_residual - want) <= 1e-8 * max(want, min_residual) + 1e-20:
        out.append(f"min_residual {min_residual:.6e} but e_{r + 1} = "
                   f"{want:.6e}")
    return out


def check_recovery(estimate, truth, field):
    """Relative distance to the drawn truth, up to sign or phase for the
    quadratic settings (``field`` ``real``/``complex``) or exactly
    (``field`` None)."""
    truth = np.asarray(truth)
    est = np.asarray(estimate)
    if est.shape != truth.shape:
        return [f"estimate shape {est.shape}, truth {truth.shape}"]
    if field is None:
        dist = float(np.linalg.norm(est - truth))
    else:
        dist = phase_distance(est, truth, field)
    rel = dist / float(np.linalg.norm(truth))
    if not rel < RECOVERY_RTOL:
        return [f"relative distance to truth {rel:.3e}"]
    return []
