"""Built-in reference data: the known 11-operator real ensemble for
4 x 4 rank-one recovery, the skew corner matrix used by the
admissibility demo, and the published exact phase-retrieval counts.

The 11 integer matrices form a sampling map that is injective on real
rank-one 4 x 4 matrices with only m = 11 = 4d - 5 measurements, one
fewer than the generic count 4dr - 4r^2 = 12.  Entries are stored as
integers so the embedded data cannot drift; ``data_digest`` guards
against accidental edits.
"""

import hashlib

import numpy as np

from . import jsonio
from .sampling import MeasurementEnsemble

BUILTIN_11_MATRICES = (
    ((-4, 1, 3, 4), (-4, 4, 4, 3), (4, -3, 0, -3), (0, -4, 2, 1)),
    ((0, 3, -1, -1), (0, -2, -1, 2), (0, 3, -2, 3), (1, -1, -3, 2)),
    ((-1, -4, -1, -1), (4, 0, -1, 1), (-2, 0, 0, 2), (0, -1, 2, 2)),
    ((-2, -2, 4, 1), (-2, 0, 2, 3), (1, -2, -4, 3), (-3, 3, 4, -2)),
    ((4, 2, -4, -4), (-4, -3, 0, 0), (1, -4, 4, -2), (3, 0, 2, 0)),
    ((2, 2, 3, 4), (2, -4, 3, 1), (0, -2, 1, -2), (-1, 0, -1, -4)),
    ((2, 1, 4, 0), (-1, -3, 0, -1), (4, -1, -4, 3), (0, 3, 0, 4)),
    ((0, 3, -1, 2), (4, 2, 1, 1), (-2, -1, 3, 4), (3, 0, 3, 3)),
    ((2, -1, 4, -4), (-2, 2, 3, -1), (-1, 1, 4, -1), (-3, -4, 4, 3)),
    ((-4, 2, 0, -1), (4, 1, 0, 4), (-1, -3, 4, 1), (-3, 2, 4, -4)),
    ((1, 1, -2, 0), (3, 0, -2, -4), (2, -4, -2, 4), (4, 3, 2, -2)),
)

# published exact minimal measurement numbers, d -> exact, reproduced by
# ``varietyrec verify`` and the acceptance suite: complex phase retrieval
# (``complex_pr_bounds``) and real phase retrieval (``real_pr_bounds``)
PUBLISHED_EXACT = {
    "complex_pr": {5: 16, 6: 18, 7: 23, 9: 32, 15: 54, 2: 3},
    "real_pr": {5: 9, 6: 10},
}

EXPECTED_DIGEST = (
    "acd7201a1dfe36229ae848253356f6a89e604e44fbf9be77afafb397c6537151"
)


def data_digest():
    """SHA-256 of the canonical integer serialization of the 11 matrices."""
    text = jsonio.dumps([[list(row) for row in mat]
                         for mat in BUILTIN_11_MATRICES])
    return hashlib.sha256(text.encode()).hexdigest()


def builtin11_ensemble():
    """The 11-matrix ensemble as a real measurement ensemble."""
    return MeasurementEnsemble(field="real", shape="matrix", d=4,
                               operators=BUILTIN_11_MATRICES)


def corner_skew(d):
    """Skew matrix with +1 at (0, d-1) and -1 at (d-1, 0), zeros elsewhere.

    The induced functional Tr(Q X^T) vanishes identically on symmetric X,
    making it the standard non-admissibility example.
    """
    d = int(d)
    if d < 2:
        raise ValueError("need d >= 2")
    q = np.zeros((d, d))
    q[0, d - 1] = 1.0
    q[d - 1, 0] = -1.0
    return q
