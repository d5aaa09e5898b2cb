"""Variety descriptors, dimension formulas, difference closures, projections.

The signal sets handled here are cones cut out by polynomial
conditions: sparse vectors, bounded-rank matrices, Hermitian matrices
of signature at most (1,1), and real rank-one matrices.  The last two
double as their own difference cones: every difference of two rank-one
Hermitian PSD lifts xx* - yy* has at most one positive and one negative
eigenvalue, and every difference of real quadratic-form lifts is seen
by symmetric operators through a single rank-one matrix
(x-y)(x+y)^T / 4.

All operations are pure functions; arrays are never mutated.
"""

import dataclasses
import math

import numpy as np

KIND_SPARSE = "sparse"
KIND_LOW_RANK = "low_rank"
KIND_HERM_SIG = "herm_sig"
KIND_RANK_ONE_REAL = "rank_one_real"

_KINDS = (KIND_SPARSE, KIND_LOW_RANK, KIND_HERM_SIG, KIND_RANK_ONE_REAL)
FIELDS = ("real", "complex")


def dim_sparse(d, k):
    """Dimension of the set of k-sparse vectors in dimension d."""
    d, k = int(d), int(k)
    if d < 1 or not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= d, got d={d}, k={k}")
    return k


def dim_low_rank(d, r):
    """Dimension 2dr - r^2 of the d x d matrices of rank <= r."""
    d, r = int(d), int(r)
    if d < 1 or not 0 <= r <= d:
        raise ValueError(f"need 0 <= r <= d, got d={d}, r={r}")
    return 2 * d * r - r * r


def dim_complex_symmetric(d, r):
    """Dimension dr - r(r-1)/2 of complex symmetric d x d matrices of rank <= r."""
    d, r = int(d), int(r)
    if d < 1 or not 0 <= r <= d:
        raise ValueError(f"need 0 <= r <= d, got d={d}, r={r}")
    return d * r - r * (r - 1) // 2


@dataclasses.dataclass(frozen=True)
class VarietySpec:
    """Descriptor of a signal set.

    Fields
    ------
    kind : one of ``sparse``, ``low_rank``, ``herm_sig``, ``rank_one_real``
    d : ambient size (vectors of length d, or d-by-d matrices)
    param : sparsity k or rank bound r; fixed to 2 for ``herm_sig`` and
        1 for ``rank_one_real``
    field : ``real`` or ``complex``
    """

    kind: str
    d: int
    param: int
    field: str

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.field not in FIELDS:
            raise ValueError(f"unknown field {self.field!r}")
        if self.d < 1:
            raise ValueError("d must be positive")
        if not 0 <= self.param <= self.d:
            raise ValueError(f"parameter {self.param} out of range [0, {self.d}]")
        if self.kind == KIND_HERM_SIG:
            if self.field != "complex" or self.param != min(2, self.d):
                raise ValueError("herm_sig is complex with rank bound min(2, d)")
        if self.kind == KIND_RANK_ONE_REAL:
            if self.field != "real" or self.param != min(1, self.d):
                raise ValueError("rank_one_real is real with rank bound 1")

    # -- constructors ---------------------------------------------------

    @classmethod
    def sparse(cls, d, k, field="real"):
        return cls(KIND_SPARSE, int(d), int(k), field)

    @classmethod
    def low_rank(cls, d, r, field="complex"):
        return cls(KIND_LOW_RANK, int(d), int(r), field)

    @classmethod
    def herm_sig(cls, d):
        return cls(KIND_HERM_SIG, int(d), min(2, int(d)), "complex")

    @classmethod
    def rank_one_real(cls, d):
        return cls(KIND_RANK_ONE_REAL, int(d), min(1, int(d)), "real")

    # -- geometry --------------------------------------------------------

    @property
    def ambient(self):
        """``('vector', d)`` or ``('matrix', d)``."""
        if self.kind == KIND_SPARSE:
            return ("vector", self.d)
        return ("matrix", self.d)

    def ambient_shape(self):
        d = self.d
        return (d,) if self.kind == KIND_SPARSE else (d, d)

    def dimension(self):
        """Dimension of the variety (complex count for complex kinds;
        the real locus has the same dimension for every kind here); the
        matrix kinds have the dimension of their rank bound."""
        if self.kind == KIND_SPARSE:
            return dim_sparse(self.d, self.param)
        return dim_low_rank(self.d, self.param)

    def is_full_space(self):
        """True when the signal set fills its ambient space."""
        return self.kind in (KIND_SPARSE, KIND_LOW_RANK) and self.param >= self.d

    # -- serialization ---------------------------------------------------

    def to_json(self):
        return {"kind": self.kind, "d": self.d, "k_or_r": self.param,
                "field": self.field}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["kind"], int(obj["d"]), int(obj["k_or_r"]), obj["field"])


def difference_closure(w):
    """Smallest descriptor containing all differences of two members of ``w``.

    Sparse sparsity doubles, rank bounds double (both clipped at d); the
    lifted phase-retrieval cones are already closed under differences.
    """
    if w.kind in (KIND_HERM_SIG, KIND_RANK_ONE_REAL):
        return w
    return dataclasses.replace(w, param=min(2 * w.param, w.d))


def _check_shape(x, w):
    if x.shape != w.ambient_shape():
        raise ValueError(f"shape {x.shape} does not match ambient {w.ambient}")


def _norm(x):
    """Euclidean norm of a float or complex array's entries: the arithmetic
    of ``np.linalg.norm(x)`` with ``ord=None`` (entries in memory order,
    ``x . x`` for real entries or ``re . re + im . im`` for complex ones,
    then a square root), without its argument handling, so the two agree
    bit for bit."""
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


def hermitize(x):
    """Hermitian part ``(x + x*) / 2`` of a square matrix, or of each
    matrix of a stack (shape (..., d, d)).  The result is Hermitian to
    the last bit, and applying it twice gives the same bits as applying
    it once."""
    x = np.asarray(x)
    return 0.5 * (x + x.conj().swapaxes(-1, -2))


def is_hermitian(a):
    """Which matrices of ``a`` (shape (..., d, d)) are Hermitian, by the
    rule every operator check uses: max |A - A*| <= 1e-10 ||A||_F.  The
    rule is relative, so it means the same at every operator scale."""
    a = np.asarray(a)
    dev = np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    return dev <= 1e-10 * np.linalg.norm(a, axis=(-2, -1))


def project(x, w):
    """Metric (Frobenius/Euclidean) projection of ``x`` onto ``w``.

    Sparse: keep the ``k`` largest-magnitude entries, ties broken by
    lowest index.  low_rank / rank_one_real: truncated SVD with singular
    values in descending order.  herm_sig: hermitize, then keep the
    single largest positive and single most-negative eigenvalue; the
    result is Hermitian to the last bit.
    """
    x = np.asarray(x)
    if not np.isfinite(x).all():
        raise ValueError("non-finite input")
    _check_shape(x, w)
    if w.kind == KIND_HERM_SIG:
        return hermitize(_project_herm_sig(hermitize(x).astype(complex), w))
    return _projection(w)(x, w)


def _project_sparse(x, w):
    out = np.zeros_like(x)
    k = w.param
    if k > 0:
        keep = np.argsort(-np.abs(x), kind="stable")[:k]
        out[keep] = x[keep]
    return out


def _project_low_rank(x, w):
    r = w.param
    if w.field == "real":
        x = x.real
    if r == 0:
        return np.zeros_like(x)
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    return (u[:, :r] * s[:r]) @ vh[:r]


def _project_herm_sig(h, w):
    vals, vecs = np.linalg.eigh(h)
    out = np.zeros_like(h)
    ip = vals.argmax()
    if vals[ip] > 0:
        u = vecs[:, ip]
        out += vals[ip] * (u[:, None] * u.conj())
    im = vals.argmin()
    if vals[im] < 0:
        u = vecs[:, im]
        out += vals[im] * (u[:, None] * u.conj())
    return out


_PROJECTIONS = {KIND_SPARSE: _project_sparse,
                KIND_LOW_RANK: _project_low_rank,
                KIND_RANK_ONE_REAL: _project_low_rank,
                KIND_HERM_SIG: _project_herm_sig}


def _projection(w):
    """The projection of :func:`project` onto ``w``'s kind as a function
    ``(x, w)`` of one finite array of the ambient shape, with no argument
    checks.

    :func:`project` checks its argument and calls it; a loop that
    projects many arrays looks it up once.  The ``herm_sig`` function
    takes a Hermitian complex matrix, reads only its lower triangle
    (``eigh``) and returns one that is Hermitian only to rounding, so
    :func:`project` hermitizes its argument before and its result after.
    """
    return _PROJECTIONS[w.kind]


def membership(x, w, tol=1e-8):
    """Decide membership of ``x`` in ``w`` within a relative tolerance:
    ``x`` is a member when its Frobenius distance to :func:`project` is
    at most ``tol * ||x||``, so a zero ``x`` is always one.

    The projection hermitizes a ``herm_sig`` input and reads the real
    part for the real rank kinds, so the distance counts an
    anti-Hermitian or an imaginary part too.
    """
    x = np.asarray(x)
    dist = float(np.linalg.norm(x - project(x, w)))
    return dist <= tol * float(np.linalg.norm(x))


def equivalence_distance(x, y, field="real"):
    """Distance between signals up to a sign (real) or a unimodular
    constant (complex): min over |c| = 1 of ||x - c y||.

    The minimizing constant is the phase of <y, x> (in closed form the
    distance is sqrt(||x||^2 + ||y||^2 - 2 |<x, y>|)); evaluating the
    aligned difference directly avoids the cancellation that would cap
    the closed form's accuracy near zero at sqrt(eps).
    """
    x = np.asarray(x).ravel()
    y = np.asarray(y).ravel()
    if field == "real":
        return float(min(np.linalg.norm(x - y), np.linalg.norm(x + y)))
    inner = complex(np.vdot(y, x))
    c = inner / abs(inner) if inner != 0 else 1.0
    return float(np.linalg.norm(x - c * y))
