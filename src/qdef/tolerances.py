"""The thresholds a run may set, each default stated once.

``atol`` bounds the entrywise identities of the invariant suites (relative to
the factors' Frobenius norms for a computed product) and the band symmetry
defect of a banded operator (relative to its entries); ``rank_tol`` is the
relative singular-value cut of the suites' rank and kernel decisions;
``ratio`` is the summability margin around block ratio 1, ``window`` the
block length of that fit and ``N`` the truncation length of banded solves.
Thresholds no run can set stay constants beside the one decision they
govern.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class Tolerances:
    atol: float = 1e-12
    rank_tol: float = 1e-10
    ratio: float = 1e-3
    window: int = 100
    N: int = 2000

    @classmethod
    def load(cls, overrides_json=None, N=None, window=None) -> Tolerances:
        """The defaults, overridden by the JSON object ``overrides_json``
        (QDEF_TOL_OVERRIDES) and then by the ``N`` and ``window`` flags.
        Raises ConfigError, naming the key, for a value it cannot use: a
        boolean, a non-finite number, a non-integral or non-positive N or
        window, an N of 2**53 or more, a ratio outside (0, 1) or a negative
        atol or rank_tol."""
        values = asdict(cls())
        if overrides_json:
            try:
                overrides = json.loads(overrides_json)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"QDEF_TOL_OVERRIDES is not valid JSON: {exc}")
            if not isinstance(overrides, dict):
                raise ConfigError("QDEF_TOL_OVERRIDES must be a JSON object")
            for key, val in overrides.items():
                if key not in values:
                    raise ConfigError(f"unknown tolerance override {key!r}")
                values[key] = _number(key, val, isinstance(values[key], int))
        for key, flag in (("N", N), ("window", window)):
            if flag is not None:
                values[key] = flag
            if values[key] <= 0:
                raise ConfigError(f"{key} must be positive, got {values[key]}")
        # banded row indices are evaluated as floats, exact below 2**53 only
        if values["N"] >= 2 ** 53:
            raise ConfigError(f"N must be below 2**53, got {values['N']}")
        if not 0.0 < values["ratio"] < 1.0:
            raise ConfigError(f"ratio must lie in (0, 1), got {values['ratio']}")
        for key in ("atol", "rank_tol"):
            if values[key] < 0.0:
                raise ConfigError(f"{key} must not be negative, got {values[key]}")
        return cls(**values)


def _number(key, val, integral):
    """One override value as a finite float, or as an int when ``integral``."""
    try:
        num = float(val)
    except (TypeError, ValueError, OverflowError):
        num = None
    if num is None or isinstance(val, bool):
        raise ConfigError(f"tolerance override {key!r} is not a number: {val!r}")
    if not math.isfinite(num):
        raise ConfigError(f"tolerance override {key!r} is not finite: {val!r}")
    if not integral:
        return num
    if not num.is_integer():
        raise ConfigError(f"tolerance override {key!r} is not an integer: {val!r}")
    return int(val) if isinstance(val, int) else int(num)


DEFAULT = Tolerances()
