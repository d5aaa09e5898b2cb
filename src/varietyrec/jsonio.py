"""Deterministic JSON rendering and complex-array (de)serialization.

Output of :func:`dumps` is byte-stable for a given value: keys sorted,
floats printed with 17 significant digits (round-trip exact for float64).
It is strict JSON: NaN and infinities are written as ``null``.
"""

import json
import math

import numpy as np


def _render(obj, out):
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        out.append(format(x, ".17g") if math.isfinite(x) else "null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        first = True
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"non-string key: {key!r}")
            if not first:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _render(obj[key], out)
            first = False
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _render(item, out)
        out.append("]")
    else:
        raise TypeError(f"not JSON-renderable: {type(obj)!r}")


def dumps(obj):
    """Render ``obj`` to a deterministic JSON string."""
    out = []
    _render(obj, out)
    return "".join(out)


def array_to_json(a):
    """Encode a real or complex array as ``{"re": ..., "im": ...}`` nested lists."""
    a = np.asarray(a)
    return {
        "re": np.real(a).astype(float).tolist(),
        "im": np.imag(a).astype(float).tolist(),
    }


def array_from_json(obj, field="complex"):
    """Decode :func:`array_to_json` output; ``field='real'`` drops (and checks) "im"."""
    if not isinstance(obj, dict):
        raise ValueError('an array must be a JSON object with "re" and "im"')
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
    if re.shape != im.shape:
        raise ValueError("re/im shape mismatch")
    if field == "real":
        if np.any(im != 0.0):
            raise ValueError("nonzero imaginary parts in a real-field array")
        return re
    return re + 1j * im
