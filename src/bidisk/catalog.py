"""Named series and measures, plus the JSON schemas the CLI accepts.

Series files are either an explicit grid

    {"deg": [d1, d2], "coeffs": [[re, im], ...]}   # row-major, (d1+1)(d2+1) pairs

or a named builtin ``{"builtin": "name", "params": {...}}``.  Measure files
are ``{"builtin": "name", "params": {"K": ...}}`` or a coefficient table

    {"K": 8, "coeffs": [[k, l, re, im], ...]}      # Hermitian-completed

where either half of each conjugate pair may be given (the measure stores
the half ``l > 0`` or ``(l = 0, k >= 0)``); a row repeated with a different
value is an input error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .capacity import FourierMeasure, custom_measure, diagonal_current, lebesgue, point_mass
from .errors import InputError
from .series import DiagonalPattern, OneVarSeries, TwoVarSeries, separable

__all__ = ["SeriesInfo", "builtin_series", "resolve_series", "resolve_measure"]


@dataclass(frozen=True)
class SeriesInfo:
    """A resolved series together with its decay-rate family, when known."""

    series: TwoVarSeries
    label: str
    family: Optional[str] = None  # "separable" | "diagonal" | "onevar" | None


# The builtin series and the params each one takes.
_SERIES_PARAMS = {
    "one_minus_z1z2": (),
    "product_one_minus": (),
    "one_minus_z1": (),
    "one_minus_pow": ("M", "N"),
    "cos_pair": ("theta",),
}


def _integer(value) -> int:
    """``value`` as an ``int``; a number with a fractional part raises ``ValueError``."""
    n = int(value)
    if isinstance(value, float) and n != value:
        raise ValueError(f"{value!r} is not an integer")
    return n


def builtin_series(name: str, /, **params) -> SeriesInfo:
    """Construct one of the named example functions.

    ``one_minus_z1z2``, ``product_one_minus``, ``one_minus_z1``,
    ``one_minus_pow`` (params ``M``, ``N``), and ``cos_pair`` (param
    ``theta``, giving ``z1^2 z2^2 - 2 cos(theta) z1 z2 + 1``).  Any other
    param is refused.
    """
    if name not in _SERIES_PARAMS:
        raise InputError(f"unknown builtin series {name!r}")
    extra = sorted(set(params) - set(_SERIES_PARAMS[name]))
    if extra:
        raise InputError(f"builtin series {name!r} takes no param {', '.join(extra)}")
    if name == "one_minus_z1z2":
        s = TwoVarSeries.from_terms({(0, 0): 1.0, (1, 1): -1.0})
        return SeriesInfo(s, name, family="diagonal")
    if name == "product_one_minus":
        g = OneVarSeries([1.0, -1.0])
        return SeriesInfo(separable(g, g), name, family="separable")
    if name == "one_minus_z1":
        s = TwoVarSeries.from_terms({(0, 0): 1.0, (1, 0): -1.0})
        return SeriesInfo(s, name, family="onevar")
    if name == "one_minus_pow":
        try:
            M, N = _integer(params["M"]), _integer(params["N"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"one_minus_pow needs integer params M and N, got {params}") from exc
        DiagonalPattern(M, N)  # refuses exponents below 1
        s = TwoVarSeries.from_terms({(0, 0): 1.0, (M, N): -1.0})
        return SeriesInfo(s, f"one_minus_pow({M},{N})", family="diagonal")
    try:  # cos_pair
        theta = float(params["theta"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"cos_pair needs a real param theta, got {params}") from exc
    if not math.isfinite(theta):
        raise InputError(f"cos_pair needs a finite param theta, got {theta}")
    s = TwoVarSeries.from_terms({(0, 0): 1.0, (1, 1): -2.0 * math.cos(theta), (2, 2): 1.0})
    return SeriesInfo(s, f"cos_pair({theta:g})", family="diagonal")


def _series_from_grid(obj: dict) -> TwoVarSeries:
    try:
        d1, d2 = (_integer(d) for d in obj["deg"])
        pairs = obj["coeffs"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"series JSON needs 'deg': [d1, d2] and 'coeffs': [[re, im], ...] ({exc})")
    if d1 < 0 or d2 < 0:
        raise InputError("series degrees must be nonnegative")
    if len(pairs) != (d1 + 1) * (d2 + 1):
        raise InputError(
            f"series JSON carries {len(pairs)} coefficients, expected {(d1 + 1) * (d2 + 1)}"
        )
    try:
        flat = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise InputError(f"series coefficients must be [re, im] pairs ({exc})")
    return TwoVarSeries(flat.reshape(d1 + 1, d2 + 1))


def _parse_builtin_token(token: str) -> SeriesInfo:
    name, _, rest = token.partition(":")
    args = rest.split(",") if rest else []
    keys = _SERIES_PARAMS.get(name, ())
    if len(args) != len(keys):
        if keys:
            raise InputError(f"use builtin:{name}:{','.join(keys)}")
        raise InputError(f"builtin series {name!r} takes no parameters")
    return builtin_series(name, **dict(zip(keys, args)))


def _read_json(spec: str, kind: str):
    """The parsed contents of the JSON file ``spec``, a ``kind`` file."""
    try:
        return json.loads(Path(spec).read_text())
    except OSError as exc:
        raise InputError(f"cannot read {kind} file {spec!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{kind} file {spec!r} is not valid JSON: {exc}")


def _builtin_fields(obj: dict, kind: str) -> Tuple[str, dict]:
    """The name and params of a ``kind`` file ``{"builtin": name, "params": {...}}``."""
    name, params = obj["builtin"], obj.get("params", {})
    if not isinstance(name, str):
        raise InputError(f"{kind} JSON 'builtin' must be a name, not {name!r}")
    if not isinstance(params, dict):
        raise InputError(f"{kind} JSON 'params' must be an object, not {params!r}")
    return name, params


def resolve_series(spec: str) -> SeriesInfo:
    """Resolve a ``--series`` value: ``builtin:name[:params]`` or a JSON file path."""
    if spec.startswith("builtin:"):
        return _parse_builtin_token(spec[len("builtin:") :])
    obj = _read_json(spec, "series")
    if isinstance(obj, dict) and "builtin" in obj:
        name, params = _builtin_fields(obj, "series")
        return builtin_series(name, **params)
    if not isinstance(obj, dict):
        raise InputError("series JSON must be an object")
    return SeriesInfo(_series_from_grid(obj), label=Path(spec).name)


_BUILTIN_MEASURES = {
    "lebesgue": lebesgue,
    "diagonal_current": diagonal_current,
    "point_mass": point_mass,
}


def _builtin_measure(name: str, K: int) -> FourierMeasure:
    if name not in _BUILTIN_MEASURES:
        raise InputError(
            f"unknown builtin measure {name!r}; available: " + ", ".join(sorted(_BUILTIN_MEASURES))
        )
    return _BUILTIN_MEASURES[name](K)


def resolve_measure(spec: str, K: int) -> FourierMeasure:
    """Resolve a ``--measure`` value: ``builtin:name`` (cutoff ``K``) or a JSON file."""
    if spec.startswith("builtin:"):
        return _builtin_measure(spec[len("builtin:") :], K)
    obj = _read_json(spec, "measure")
    if isinstance(obj, dict) and "builtin" in obj:
        name, params = _builtin_fields(obj, "measure")
        if set(params) - {"K"}:
            raise InputError(f"measure JSON takes only the param K, got {params}")
        try:
            K = _integer(params.get("K", K))
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"measure JSON needs an integer param K, got {params}") from exc
        return _builtin_measure(name, K)
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise InputError("measure JSON needs 'coeffs': [[k, l, re, im], ...]")
    try:
        rows = [((_integer(k), _integer(l)), complex(re, im)) for k, l, re, im in obj["coeffs"]]
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"measure coefficients must be [k, l, re, im] rows ({exc})")
    table = dict(rows)
    if any(table[key] is not value and table[key] != value for key, value in rows):
        raise InputError("measure file gives one coefficient twice with different values")
    K = obj.get("K")
    try:
        K = K if K is None else _integer(K)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"measure JSON 'K' must be an integer, got {K!r}") from exc
    return custom_measure(table, K=K)
