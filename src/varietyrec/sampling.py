"""Measurement ensembles, lifts, the Hermitian realification map, generators.

Sampling conventions
--------------------
Vector ensembles sample ``y_j = <a_j, x>`` with the operator conjugated
(``numpy.vdot(a_j, x)``), so the map is linear in ``x``.  Matrix
ensembles sample ``y_j = Tr(A_j X*) = <X, A_j>_F`` which conjugates the
signal: over the complex field the map is additive and conjugates
scalars.  Either way the kernel ``{X : y = 0}`` is a subspace, which is
all injectivity analysis needs.

Generators draw one substream per operator index, so enlarging ``m``
with the same seed extends an ensemble without changing its prefix.
"""

import dataclasses
import hashlib
import json

import numpy as np

from . import jsonio
from .varieties import FIELDS, hermitize, is_hermitian

_SHAPES = ("vector", "matrix")

# spawn-key stream tags, one per generator family
_STREAM_GAUSS_VEC = 10
_STREAM_GAUSS_MAT = 11
_STREAM_SYM_RANK = 12
_STREAM_HERM_RANK = 13


def derived_rng(seed, *key):
    """Independent, platform-stable generator for (seed, key path)."""
    return np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    )


@dataclasses.dataclass(eq=False)
class MeasurementEnsemble:
    """Sampling operators over a common field and shape, held as one
    read-only array of shape (m, d) or (m, d, d): row j is operator j.

    Treat instances as immutable: ``operators`` is built, checked and
    marked read-only once at construction, and :meth:`stack` is a view
    of it.  Ensembles compare and hash by identity; ``a.digest ==
    b.digest`` compares their content.  ``ranks`` records per-operator rank bounds (verified on
    load); ``hermitian`` asserts max |A_j - A_j*| <= 1e-10 ||A_j||_F
    (:func:`~varietyrec.varieties.is_hermitian`).
    """

    field: str
    shape: str
    d: int
    operators: np.ndarray
    ranks: list = None
    seed: int = None
    hermitian: bool = False

    def __post_init__(self):
        if self.field not in FIELDS:
            raise ValueError(f"unknown field {self.field!r}")
        if self.shape not in _SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")
        if self.d < 1:
            raise ValueError("d must be positive")
        want = (self.d,) if self.shape == "vector" else (self.d, self.d)
        ops = [np.asarray(a) for a in self.operators]
        if not ops:
            raise ValueError("need at least one operator")
        for a in ops:
            if a.shape != want:
                raise ValueError(f"operator shape {a.shape}, expected {want}")
        ops = np.stack(ops)
        if self.field == "real":
            if np.any(np.imag(ops) != 0):
                raise ValueError("real ensemble with nonzero imaginary parts")
            ops = np.ascontiguousarray(ops.real, dtype=np.float64)
        else:
            ops = ops.astype(np.complex128, copy=False)
        if not np.isfinite(ops).all():
            raise ValueError("non-finite operator entries")
        ops.setflags(write=False)
        self.operators = ops
        if self.ranks is not None:
            self.ranks = [int(r) for r in self.ranks]
            if len(self.ranks) != len(ops):
                raise ValueError("ranks length mismatch")
            if self.shape != "matrix":
                raise ValueError("ranks only apply to matrix ensembles")
            s = np.linalg.svd(ops, compute_uv=False)
            for r, sj in zip(self.ranks, s):
                if not 0 <= r <= self.d:
                    raise ValueError(f"rank bound {r} out of range")
                if r < self.d and sj[r] > 1e-8 * max(sj[0], 1e-300):
                    raise ValueError("operator violates its declared rank bound")
        if self.hermitian:
            if self.shape != "matrix":
                raise ValueError("hermitian flag only applies to matrix ensembles")
            if not is_hermitian(ops).all():
                raise ValueError("hermitian-flagged operator is not Hermitian")
        self._digest = None

    @property
    def m(self):
        return len(self.operators)

    def stack(self):
        """Operators flattened into an (m, n) view, row j = vec(A_j)."""
        return self.operators.reshape(self.m, -1)

    @property
    def digest(self):
        """Short content hash used as sample provenance."""
        if self._digest is None:
            text = jsonio.dumps(ensemble_to_json(self))
            self._digest = hashlib.sha256(text.encode()).hexdigest()[:12]
        return self._digest


class SampleVector:
    """Measurements of one signal; ``y[j]`` pairs with ``operators[j]``.

    ``provenance`` is the digest of the ensemble that took the samples
    (:attr:`MeasurementEnsemble.digest`).  Samples made by :func:`apply`
    hold their ensemble and hash it only when ``provenance`` is read.
    """

    def __init__(self, y, provenance=None, *, ensemble=None):
        self.y = np.asarray(y, dtype=np.complex128)
        if self.y.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        self._provenance = provenance
        self._ensemble = ensemble

    @property
    def provenance(self):
        if self._ensemble is not None:
            return self._ensemble.digest
        return self._provenance


def apply(e, x):
    """Sample ``x`` with every operator of ``e``.

    Vector ensembles: ``y_j = vdot(a_j, x)``.  Matrix ensembles:
    ``y_j = Tr(A_j x*)``.  Raises on shape mismatch.
    """
    x = np.asarray(x)
    want = e.operators.shape[1:]
    if x.shape != want:
        raise ValueError(f"signal shape {x.shape}, expected {want}")
    if e.shape == "vector":
        y = e.stack().conj() @ x.astype(np.complex128)
    else:
        y = e.stack() @ x.conj().ravel()
    return SampleVector(y=y, ensemble=e)


def lift_rank_one(a):
    """Rank-one Hermitian PSD lift ``a a*`` of a vector, or of each vector
    along the last axis of a stack (shape (..., d) to (..., d, d)).

    The outer product is hermitized once, which is exact in floating
    point, so the returned matrix satisfies A = A* to the last bit.
    """
    a = np.asarray(a)
    h = a[..., :, None] * a.conj()[..., None, :]
    if np.iscomplexobj(h):
        h = hermitize(h)
    return h


def lift_ensemble(e):
    """Matrix ensemble of rank-one lifts of a vector ensemble's rows."""
    if e.shape != "vector":
        raise ValueError("lift_ensemble expects a vector ensemble")
    return MeasurementEnsemble(field=e.field, shape="matrix", d=e.d,
                               operators=lift_rank_one(e.operators),
                               ranks=[1] * e.m, seed=e.seed, hermitian=True)


def tau(a):
    """Realification isomorphism ``A -> (A+A^T)/2 + i (A-A^T)/2``.

    Maps real d x d matrices isometrically onto the Hermitian matrices;
    rejects complex input.
    """
    a = np.asarray(a)
    if np.any(np.imag(a) != 0):
        raise ValueError("tau expects a real matrix")
    return _tau(a.real.astype(float))


def _tau(a):
    """:func:`tau` of a real square float matrix, without its checks: the
    products with (1 +- i)/2 only halve, so each entry is rounded once and
    the result is exactly Hermitian."""
    return a * (0.5 + 0.5j) + a.T * (0.5 - 0.5j)


def tau_inverse(h):
    """Inverse of :func:`tau` on Hermitian matrices: ``Re(h) + Im(h)``.
    Refuses a matrix that fails :func:`~varietyrec.varieties.is_hermitian`."""
    h = np.asarray(h)
    if not is_hermitian(h):
        raise ValueError("input is not Hermitian within tolerance")
    return np.real(h) + np.imag(h)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _gauss(rng, shape, field):
    g = rng.standard_normal(shape)
    if field == "complex":
        return g + 1j * rng.standard_normal(shape)
    return g


def gen_gaussian_vectors(d, m, field="real", seed=0):
    """m independent standard-normal vectors (complex: independent parts)."""
    ops = [_gauss(derived_rng(seed, _STREAM_GAUSS_VEC, j), (d,), field)
           for j in range(m)]
    return MeasurementEnsemble(field=field, shape="vector", d=d,
                               operators=ops, seed=seed)


def gen_gaussian_matrices(d, m, field="complex", seed=0):
    """m independent standard-normal d x d matrices."""
    ops = [_gauss(derived_rng(seed, _STREAM_GAUSS_MAT, j), (d, d), field)
           for j in range(m)]
    return MeasurementEnsemble(field=field, shape="matrix", d=d,
                               operators=ops, seed=seed)


def gen_symmetric_rank(d, ranks, seed=0):
    """Real symmetric operators ``A_j = sum_{i<=r_j} z_i z_i^T``.

    Rank bounds hold exactly by construction (each term is an outer
    product of a real Gaussian vector).
    """
    ops = []
    for j, r in enumerate(ranks):
        r = int(r)
        if not 0 <= r <= d:
            raise ValueError(f"rank bound {r} out of range [0, {d}]")
        rng = derived_rng(seed, _STREAM_SYM_RANK, j)
        a = np.zeros((d, d))
        for _ in range(r):
            z = rng.standard_normal(d)
            a = a + np.outer(z, z)
        ops.append(a)
    return MeasurementEnsemble(field="real", shape="matrix", d=d,
                               operators=ops, ranks=list(map(int, ranks)),
                               seed=seed, hermitian=True)


def gen_hermitian_rank(d, ranks, seed=0):
    """Hermitian operators ``A_j = sum_{i<=r_j} lam_i u_i u_i*``.

    Weights are real Gaussians and directions complex Gaussians; a final
    hermitization (exact in floating point) makes A = A* hold to the
    last bit while moving entries by at most one rounding.
    """
    ops = []
    for j, r in enumerate(ranks):
        r = int(r)
        if not 0 <= r <= d:
            raise ValueError(f"rank bound {r} out of range [0, {d}]")
        rng = derived_rng(seed, _STREAM_HERM_RANK, j)
        a = np.zeros((d, d), dtype=complex)
        for _ in range(r):
            lam = rng.standard_normal()
            u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            a = a + lam * np.outer(u, u.conj())
        ops.append(hermitize(a))
    return MeasurementEnsemble(field="complex", shape="matrix", d=d,
                               operators=ops, ranks=list(map(int, ranks)),
                               seed=seed, hermitian=True)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def ensemble_to_json(e):
    obj = {
        "field": e.field,
        "shape": e.shape,
        "d": e.d,
        "m": e.m,
        "operators": [jsonio.array_to_json(a) for a in e.operators],
    }
    if e.ranks is not None:
        obj["ranks"] = list(e.ranks)
    if e.seed is not None:
        obj["seed"] = int(e.seed)
    if e.hermitian:
        obj["hermitian"] = True
    return obj


def ensemble_from_json(obj):
    if not (isinstance(obj, dict)
            and isinstance(obj.get("operators", []), list)):
        raise ValueError("an ensemble must be a JSON object whose "
                         "'operators' is a list")
    try:
        ops = [jsonio.array_from_json(o, obj["field"])
               for o in obj["operators"]]
        if len(ops) != int(obj["m"]):
            raise ValueError("operator count disagrees with m")
        return MeasurementEnsemble(
            field=obj["field"], shape=obj["shape"], d=int(obj["d"]),
            operators=ops, ranks=obj.get("ranks"), seed=obj.get("seed"),
            hermitian=bool(obj.get("hermitian", False)),
        )
    except KeyError as exc:
        raise ValueError(f"ensemble JSON lacks key {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"malformed ensemble JSON: {exc}") from None


def save_ensemble(path, e):
    with open(path, "w") as fh:
        fh.write(jsonio.dumps(ensemble_to_json(e)))
        fh.write("\n")


def load_ensemble(path):
    with open(path) as fh:
        return ensemble_from_json(json.load(fh))


def samples_to_json(s):
    return {"m": int(s.y.size), "y": jsonio.array_to_json(s.y),
            "provenance": s.provenance}


def samples_from_json(obj):
    if not isinstance(obj, dict):
        raise ValueError("samples must be a JSON object")
    try:
        return SampleVector(y=jsonio.array_from_json(obj["y"]),
                            provenance=obj.get("provenance"))
    except KeyError as exc:
        raise ValueError(f"samples JSON lacks key {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"malformed samples JSON: {exc}") from None


def save_samples(path, s):
    with open(path, "w") as fh:
        fh.write(jsonio.dumps(samples_to_json(s)))
        fh.write("\n")


def load_samples(path):
    with open(path) as fh:
        return samples_from_json(json.load(fh))
