"""Closed-form minimal measurement numbers: exact values, bounds, regimes.

Every function returns a :class:`BoundsReport` carrying a lower bound,
an upper bound, an exact value when one is known, and a ``regime`` tag
naming the formula family that produced it.  When no formula covers a
parameter range, the report says so instead of extrapolating: the lower
bound falls back to the dimension of the signal set, which no injective
linear map can go below, with an explanatory note.
"""

import dataclasses

from .varieties import dim_low_rank, dim_sparse


@dataclasses.dataclass
class BoundsReport:
    """Minimal-measurement bounds for one recovery setting."""

    setting: str
    params: dict
    lower: int
    upper: int
    exact: int = None
    regime: str = ""
    codim_bad_set: int = None
    notes: tuple = ()

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")
        if self.exact is not None and not self.lower <= self.exact <= self.upper:
            raise ValueError("exact value outside [lower, upper]")

    def to_json(self):
        return {
            "setting": self.setting,
            "params": dict(self.params),
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "regime": self.regime,
            "codim_bad_set": self.codim_bad_set,
            "notes": list(self.notes),
        }


def alpha(n):
    """Number of 1's in the binary expansion of ``n``."""
    n = int(n)
    if n < 0:
        raise ValueError("alpha expects a nonnegative integer")
    return n.bit_count()


def codim_bad_set(m, dim_w):
    """Codimension ``m - dim_w + 1`` of the failing set at m >= dim_w."""
    m, dim_w = int(m), int(dim_w)
    if m < dim_w:
        raise ValueError("codimension formula needs m >= dim_w")
    return m - dim_w + 1


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


def sparse_minimal(d, k):
    """Exact minimum 2k for unique recovery of k-sparse vectors (2k <= d)."""
    d, k = int(d), int(k)
    if not 0 <= k <= d or 2 * k > d:
        raise ValueError("need 0 <= k and 2k <= d")
    exact = dim_sparse(d, min(2 * k, d))
    return BoundsReport(
        setting="sparse", params={"d": d, "k": k},
        lower=exact, upper=exact, exact=exact,
        regime="difference dimension 2k",
        codim_bad_set=1,
        notes=("differences of k-sparse vectors are 2k-sparse",
               "real generic operators reach the same count"),
    )


def lowrank_minimal(d, r, field="complex"):
    """Minimal measurements to separate rank <= r matrices (r <= d/2).

    Complex: exactly ``4dr - 4r^2``, the dimension of the rank-2r
    difference variety.  Real: the same count suffices generically and is
    known tight when ``d = 2^kappa + r`` (kappa >= 0) or ``d = 2r + 1``;
    elsewhere the lower bound is ``2dr - r^2``, the dimension of the
    signal set, which no injective linear map can lower.
    """
    d, r = int(d), int(r)
    if not 0 <= r or 2 * r > d:
        raise ValueError("need 0 <= r <= d/2")
    threshold = dim_low_rank(d, min(2 * r, d))
    if field == "complex":
        return BoundsReport(
            setting="low_rank", params={"d": d, "r": r, "field": field},
            lower=threshold, upper=threshold, exact=threshold,
            regime="exact threshold 4dr-4r^2 (complex)",
            codim_bad_set=1,
        )
    if field != "real":
        raise ValueError(f"unknown field {field!r}")

    in_family = (d == 2 * r + 1)
    regime = "real exact family d=2r+1" if in_family else ""
    diff = d - r
    if not in_family and _is_power_of_two(diff):
        in_family = True
        regime = "real exact family d=2^kappa+r"
    notes = []
    if (d, r) == (4, 1):
        notes.append("a known 11-operator real construction is injective at m=11 < 12")
    if in_family:
        return BoundsReport(
            setting="low_rank", params={"d": d, "r": r, "field": field},
            lower=threshold, upper=threshold, exact=threshold,
            regime=regime, notes=tuple(notes),
        )
    lower = dim_low_rank(d, r)
    if lower < threshold:
        notes.append("tightness of 4dr-4r^2 over the reals is open outside the exact families")
    return BoundsReport(
        setting="low_rank", params={"d": d, "r": r, "field": field},
        lower=lower, upper=threshold,
        exact=lower if lower == threshold else None,
        regime="real: lower bound 2dr-r^2, generic upper bound 4dr-4r^2",
        notes=tuple(notes),
    )


def real_pr_bounds(d):
    """Minimal symmetric-operator count for sign recovery in R^d.

    Upper bound 2d-1 (odd d) or 2d-2 (even d); exact at d = 2^k + 1 and
    d = 2^k + 2 (k >= 1); for d >= 5 a binary-expansion lower bound of
    2d - 6*floor(log2(d-1)) + 6 (odd) or 2d - 6*floor(log2(d-2)) + 4
    (even) applies.  The lower bound is never below d, the dimension of
    the signal set {xx^T}, and is all that is claimed below d = 5; when
    it meets the upper bound, that is the exact value.
    """
    d = int(d)
    if d < 2:
        raise ValueError("need d >= 2")
    odd = d % 2 == 1
    upper = 2 * d - 1 if odd else 2 * d - 2

    exact = None
    regime = "interval only"
    if d >= 3 and _is_power_of_two(d - 1):
        exact = 2 * d - 1
        regime = "exact family d=2^k+1 (2d-1)"
    elif d >= 4 and _is_power_of_two(d - 2):
        exact = 2 * d - 2
        regime = "exact family d=2^k+2 (2d-2)"

    notes = []
    lower = d
    if d >= 5:
        if odd:
            lower = max(lower, 2 * d - 6 * ((d - 1).bit_length() - 1) + 6)
        else:
            lower = max(lower, 2 * d - 6 * ((d - 2).bit_length() - 1) + 4)
    else:
        notes.append("lower bound d, the dimension of the signal set "
                     "(the binary-expansion formula needs d >= 5)")
    if exact is None and lower == upper:
        exact = lower
    return BoundsReport(
        setting="real_pr", params={"d": d},
        lower=lower, upper=upper, exact=exact, regime=regime,
        notes=tuple(notes),
    )


def _complex_pr_family(d):
    """Exact-value family tag for the generalized complex setting, or None."""
    if d >= 2 and _is_power_of_two(d - 1) and d - 1 >= 4:
        return ("exact family d=2^k+1 (4d-4)", 4 * d - 4)
    if d >= 2 and _is_power_of_two(d - 2) and d - 2 >= 4:
        return ("exact family d=2^k+2 (4d-6)", 4 * d - 6)
    n = d - 1
    bits = [i for i in range(n.bit_length()) if (n >> i) & 1]
    if len(bits) == 2 and min(bits) >= 1:
        return ("exact family d=2^k+2^j+1 (4d-5)", 4 * d - 5)
    if len(bits) == 3 and min(bits) >= 1:
        return ("exact family d=2^k+2^j+2^l+1 (4d-6)", 4 * d - 6)
    return None


def complex_pr_bounds(d):
    """Minimal Hermitian-operator count for phase retrieval in C^d.

    d = 2 is exactly 3.  For d > 4 the interval is
    ``4d-2-2a+eps <= m <= 4d-3-a-delta`` with ``a`` the number of 1's in
    the binary expansion of d-1, ``eps`` a parity correction (2 when d is
    odd and a = 3 mod 4, 1 when d is odd and a = 2 mod 4, else 0) and
    ``delta`` 0 for odd d, 1 for even d.  Four binary families pin the
    exact value.  For d in {3, 4} the interval formulas do not apply and
    only the range [2d-1, 4d-4] is reported: no injective map has fewer
    samples than the real dimension 2d-1 of the signal set {xx*}.
    """
    d = int(d)
    if d < 2:
        raise ValueError("need d >= 2")
    if d == 2:
        return BoundsReport(
            setting="complex_pr", params={"d": d},
            lower=3, upper=3, exact=3, regime="exact small case d=2",
        )
    if d <= 4:
        return BoundsReport(
            setting="complex_pr", params={"d": d},
            lower=2 * d - 1, upper=4 * d - 4, exact=None,
            regime="generic interval only (formulas need d > 4)",
            notes=("lower bound 2d-1, the real dimension of the signal set",),
        )
    a = alpha(d - 1)
    odd = d % 2 == 1
    if odd and a % 4 == 3:
        eps = 2
    elif odd and a % 4 == 2:
        eps = 1
    else:
        eps = 0
    delta = 0 if odd else 1
    lower = 4 * d - 2 - 2 * a + eps
    upper = 4 * d - 3 - a - delta
    fam = _complex_pr_family(d)
    if fam is not None:
        regime, exact = fam
    else:
        regime, exact = "interval from binary-expansion bounds", None
    return BoundsReport(
        setting="complex_pr", params={"d": d},
        lower=lower, upper=upper, exact=exact, regime=regime,
    )


def standard_pr_facts(d):
    """Rank-one (vector) phase retrieval in C^d.

    Generic upper bound 4d-4; binary-expansion lower bound 4d-3-2a;
    exact 4d-4 when d = 2^k + 1 (k >= 1); at d = 4 a known 11-vector
    construction beats the generic count.
    """
    d = int(d)
    if d < 2:
        raise ValueError("need d >= 2")
    a = alpha(d - 1)
    lower = 4 * d - 3 - 2 * a
    upper = 4 * d - 4
    exact = None
    regime = "generic upper 4d-4"
    if _is_power_of_two(d - 1):
        exact = 4 * d - 4
        regime = "exact family d=2^k+1 (4d-4)"
    notes = ["lower bound 4d-3-2*alpha(d-1) from binary expansion"]
    if d == 4:
        notes.append("a known 11-vector construction is phase retrieving at m=11 < 12")
    return BoundsReport(
        setting="standard_pr", params={"d": d},
        lower=lower, upper=upper, exact=exact, regime=regime,
        notes=tuple(notes),
    )


def generic_report(dim_w, m=None):
    """Report for an abstract difference variety of dimension ``dim_w``:
    a generic operator separates it from zero with exactly ``dim_w``
    measurements."""
    dim_w = int(dim_w)
    if dim_w < 0:
        raise ValueError("dimension must be nonnegative")
    codim = codim_bad_set(m, dim_w) if m is not None and m >= dim_w else None
    return BoundsReport(
        setting="generic_variety", params={"dim_w": dim_w, "m": m},
        lower=dim_w, upper=dim_w, exact=dim_w,
        regime="generic dimension count", codim_bad_set=codim,
    )
