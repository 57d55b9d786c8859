"""Scenario description: network, demand, rewards, chargers, charging curve.

A :class:`NetworkConfig` is an immutable value object.  All dense tables are
numpy arrays marked read-only, so configs can be shared freely between
threads and worker processes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import numbers
import sys
import typing
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigError

SCHEMA = "fleetlab-config-v1"

#: Piecewise charging profile: (band upper bound in percent, seconds per 1%).
#: Bands start at the previous bound (the first at 0%).
ChargingCurve = tuple[tuple[float, float], ...]

# Chevrolet Bolt style DC-fast profile; slows down sharply above 80%.
DEFAULT_CHARGING_CURVE: ChargingCurve = (
    (10.0, 47.0),
    (40.0, 33.0),
    (60.0, 40.0),
    (80.0, 60.0),
    (90.0, 107.0),
    (95.0, 173.0),
    (100.0, 533.0),
)


def _table(dtype, axes: str):
    """A table field of `dtype` over `axes`: V regions, T steps, R charge rates."""
    return field(metadata={"dtype": np.dtype(dtype), "axes": axes})


#: The size fields, which serialise under "dims".
_DIMS = ("num_regions", "fleet_size", "battery_capacity", "horizon_steps")

#: The reward tables; a day earns at most N * T times their largest |entry|.
_REWARDS = ("trip_reward", "reposition_reward", "charge_reward")
#: The largest mean numpy's Poisson sampler takes, INT64_MAX - 10 sqrt(INT64_MAX).
_POISSON_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


class TableLists(NamedTuple):
    """The tables that per-vehicle code reads one entry at a time, as nested
    Python lists: ``trip_duration[u][v][t]`` is a list lookup that gives an
    int, where the array needs a numpy scalar read and a conversion."""

    trip_duration: list
    battery_cost: list
    trip_reward: list
    reposition_reward: list
    charge_reward: list


@dataclass(frozen=True)
class NetworkConfig:
    """Immutable description of one simulation scenario.

    Battery is an integer grid.  ``battery_cost[u, v]`` is the (rounded-up)
    battery units consumed travelling u -> v; ``charge_rates`` are integer
    battery units gained per step.  Trips between a region and itself are
    excluded from the model: the diagonal of ``arrival_rate`` must be zero.
    Construction checks every field against its declaration (see `_coerce`).
    """

    num_regions: int
    fleet_size: int
    battery_capacity: int
    horizon_steps: int
    epoch_minutes: numbers.Real                                # stored as given
    charge_rates: tuple[int, ...]
    charge_period: int
    charger_counts: np.ndarray = _table(np.int64, "VR")
    pickup_patience: int
    connection_patience: int
    trip_duration: np.ndarray = _table(np.int64, "VVT")        # steps
    battery_cost: np.ndarray = _table(np.int64, "VV")          # battery units
    arrival_rate: np.ndarray = _table(np.float64, "VVT")       # mean arrivals
    trip_reward: np.ndarray = _table(np.float64, "VVT")
    reposition_reward: np.ndarray = _table(np.float64, "VVT")
    charge_reward: np.ndarray = _table(np.float64, "RT")
    charging_curve: Optional[ChargingCurve] = None
    demand_scale: Optional[numbers.Real] = None
    name: str = "unnamed"

    def __post_init__(self):
        for name, kind in _KINDS:
            object.__setattr__(self, name, _coerce(name, kind, getattr(self, name)))
        self.validate()

    # -- derived quantities -------------------------------------------------

    @property
    def num_rates(self) -> int:
        return len(self.charge_rates)

    @property
    def trip_cap(self) -> int:
        """Queue cap per trip status: N * (L_c + 1)."""
        return self.fleet_size * (self.connection_patience + 1)

    @functools.cached_property
    def eta_cap(self) -> int:
        """Largest task remaining time any vehicle can carry."""
        tau_max = self.max_offdiag_duration()
        return max(self.pickup_patience + tau_max - 1, self.charge_period - 1, 0)

    @functools.cached_property
    def lists(self) -> TableLists:
        """The scalar-read tables as nested lists, built on first use."""
        return TableLists(*(getattr(self, f).tolist() for f in TableLists._fields))

    def max_offdiag_duration(self) -> int:
        V = self.num_regions
        if V < 2:
            return 1
        mask = ~np.eye(V, dtype=bool)
        return int(self.trip_duration[mask].max())

    def rate_index(self, rate: int) -> int:
        try:
            return self.charge_rates.index(int(rate))
        except ValueError:
            raise ConfigError(f"unknown charge rate {rate!r}") from None

    def effective_demand_scale(self) -> float:
        if self.demand_scale is not None:
            return float(self.demand_scale)
        per_step = self.arrival_rate.sum(axis=(0, 1))
        return float(max(1.0, per_step.max() if per_step.size else 1.0))

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        V, T, R = self.num_regions, self.horizon_steps, self.num_rates
        problems = []
        if V < 1 or self.fleet_size < 1 or self.battery_capacity < 1 or T < 1:
            problems.append("V, N, B, T must all be positive")
        sizes = {"V": V, "T": T, "R": R}
        for f, axes in _AXES:
            shape = tuple(sizes[a] for a in axes)
            if getattr(self, f).shape != shape:
                problems.append(f"{f} shape {getattr(self, f).shape} != {shape}")
        if problems:
            raise ConfigError("; ".join(problems))

        if self.epoch_minutes <= 0 or (self.demand_scale is not None and self.demand_scale <= 0):
            problems.append("epoch_minutes and demand_scale must be positive")
        if len(set(self.charge_rates)) != R or any(r < 1 for r in self.charge_rates):
            problems.append("charge_rates must be distinct positive integers")
        if V >= 2:
            off = ~np.eye(V, dtype=bool)
            if int(self.trip_duration[off].min()) <= self.pickup_patience:
                problems.append("min trip duration must exceed pickup_patience")
            if (self.trip_reward[off] < 0).any():
                problems.append("trip_reward must be nonnegative")
            if (self.battery_cost[off] > self.battery_capacity).any():
                problems.append("battery_cost must not exceed battery_capacity")
            if (self.arrival_rate[off] < 0).any():
                problems.append("arrival_rate must be nonnegative")
        if self.charge_period <= self.pickup_patience:
            problems.append("charge_period must exceed pickup_patience")
        if (self.arrival_rate > _POISSON_MAX).any():
            problems.append(f"arrival_rate must not exceed {_POISSON_MAX!r}, numpy's Poisson limit")
        if (np.diagonal(self.arrival_rate, axis1=0, axis2=1) != 0).any():
            problems.append("intra-region trips are excluded: arrival_rate diagonal must be 0")
        if (np.diagonal(self.battery_cost) != 0).any():
            problems.append("battery_cost diagonal must be 0")
        if (np.diagonal(self.reposition_reward, axis1=0, axis2=1) != 0).any():
            problems.append("reposition_reward diagonal must be 0")
        if (self.reposition_reward > 0).any():
            problems.append("reposition_reward must be nonpositive")
        if (self.charge_reward > 0).any():
            problems.append("charge_reward must be nonpositive")
        if (self.charger_counts < 0).any():
            problems.append("charger_counts must be nonnegative")
        if (self.trip_duration < 1).any():
            problems.append("trip_duration must be at least 1 step")
        if self.pickup_patience < 0 or self.connection_patience < 0:
            problems.append("patience windows must be nonnegative")
        if self.trip_cap > np.iinfo(np.int64).max:
            problems.append("fleet_size * (connection_patience + 1) must fit an int64 count")
        elif not np.isfinite(self.fleet_size * T * max(   # N < 2**63 here: it converts to a float
                float(np.abs(getattr(self, f)).max(initial=0.0)) for f in _REWARDS)):
            problems.append(f"{', '.join(_REWARDS)}: a day's largest reward, "
                            "N * T * max |entry|, must be finite")
        if self.charging_curve is not None:
            bounds = [p for p, _ in self.charging_curve]
            if bounds != sorted(bounds) or bounds[-1:] != [100.0] or any(s <= 0 for _, s in self.charging_curve):
                problems.append("charging_curve bands must increase to 100% with positive seconds")
        if problems:
            raise ConfigError("; ".join(problems))

    # -- charging curve -----------------------------------------------------

    def charge_result(self, battery: int, rate: int) -> int:
        """Battery level after one full charging period started at `battery`."""
        B = self.battery_capacity
        if self.charging_curve is None:
            return min(battery + rate * self.charge_period, B)
        seconds = self.charge_period * self.epoch_minutes * 60.0
        p0 = 100.0 * battery / B
        p1 = curve_percent_after(self.charging_curve, p0, seconds)
        b1 = int(np.floor(p1 * B / 100.0 + 1e-9))
        return min(max(b1, battery), B)

    def with_updates(self, **kwargs) -> "NetworkConfig":
        return replace(self, **kwargs)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        for f, _ in _AXES:
            doc[f] = doc[f].tolist()
        doc["dims"] = {**{k: doc.pop(k) for k in _DIMS}, "num_rates": self.num_rates}
        doc["schema"] = SCHEMA
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "NetworkConfig":
        """Config from its dict form; a missing or badly typed field, or a
        `dims.num_rates` other than the number of charge rates, raises
        ConfigError."""
        schema = doc.get("schema") if isinstance(doc, dict) else None
        if schema != SCHEMA:
            raise ConfigError(f"unsupported schema {schema!r}, expected {SCHEMA!r}")
        try:
            dims = doc["dims"]
            if not isinstance(dims, dict):
                raise ConfigError(f"config field 'dims' must be an object, got {dims!r:.40}")
            given = {}
            for f in fields(cls):
                src = dims if f.name in _DIMS else doc
                if f.name in src or f.default is MISSING:
                    given[f.name] = src[f.name]
        except KeyError as exc:
            raise ConfigError(f"config is missing field {exc.args[0]!r}") from None
        config = cls(**given)
        if "num_rates" in dims and _coerce("num_rates", int, dims["num_rates"]) != config.num_rates:
            raise ConfigError(f"config dims.num_rates {dims['num_rates']} does not match "
                              f"the {config.num_rates} charge_rates")
        return config

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "NetworkConfig":
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"config is not JSON: {exc}") from None
        return cls.from_dict(doc)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "NetworkConfig":
        try:
            with open(path) as fh:
                text = fh.read()
        except (IsADirectoryError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path} is not a text file: {exc}") from None
        return cls.from_json(text)

    def digest(self) -> str:
        """Stable content hash used for report provenance."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]


def _coerce(name: str, kind, value):
    """`value` checked against the declared kind of field `name`: a table's
    dtype, or an annotation built from int, float, numbers.Real, str, tuple
    and Optional. An int or float field stores its value as that type, a
    numbers.Real field a finite number as given, a table a read-only array;
    a mismatch raises ConfigError."""
    number = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if kind is int:
        if number and isinstance(value, (int, np.integer)):
            return int(value)
    elif kind is float or kind is numbers.Real:
        if number and abs(value) <= sys.float_info.max:
            return value if kind is numbers.Real and isinstance(value, (int, float)) else float(value)
    elif kind is str:
        if isinstance(value, str):
            return value
    elif isinstance(kind, np.dtype):
        return _coerce_table(name, kind, value)
    elif typing.get_origin(kind) is typing.Union:       # Optional[X]
        return None if value is None else _coerce(name, typing.get_args(kind)[0], value)
    elif isinstance(value, (list, tuple)):              # tuple[X, ...] or tuple[X, Y]
        items = typing.get_args(kind)
        if items[-1] is Ellipsis:
            items = items[:1] * len(value)
        if len(items) == len(value):
            return tuple(_coerce(name, k, v) for k, v in zip(items, value))
    what = {int: "an integer", float: "a finite number", numbers.Real: "a finite number",
            str: "a string"}.get(kind, f"of type {kind}")
    raise ConfigError(f"config field {name!r} must be {what}, got {value!r:.40}")


def _coerce_table(name: str, dtype: np.dtype, value) -> np.ndarray:
    """`value` as a read-only array of `dtype`: integer tables must arrive
    with an integer dtype, real tables must be finite."""
    integral = dtype.kind in "iu"
    try:
        arr = np.asarray(value)
    except ValueError:                                  # ragged nesting
        arr = np.asarray(None)
    ok = arr.dtype.kind in ("iu" if integral else "iuf")
    if ok:
        arr = np.ascontiguousarray(arr, dtype=dtype)
        ok = integral or bool(np.isfinite(arr).all())
    if not ok:
        raise ConfigError(f"config field {name!r} must be a table of "
                          f"{'integers' if integral else 'finite numbers'}")
    arr.flags.writeable = False
    return arr


_HINTS = typing.get_type_hints(NetworkConfig)
#: (field, declared kind) in field order; a table's kind is its dtype.
_KINDS = tuple((f.name, f.metadata.get("dtype", _HINTS[f.name])) for f in fields(NetworkConfig))
#: (table field, axes letters).
_AXES = tuple((f.name, f.metadata["axes"]) for f in fields(NetworkConfig) if f.metadata)


# -- charging-curve arithmetic ---------------------------------------------


def curve_percent_after(curve: ChargingCurve, p0: float, seconds: float) -> float:
    """Battery percentage reached after charging for `seconds` from p0%."""
    p = min(max(p0, 0.0), 100.0)
    budget = seconds
    lo = 0.0
    for hi, sec_per_pct in curve:
        if p < hi:
            seg = hi - max(p, lo)
            cost = seg * sec_per_pct
            if budget < cost:
                return p + budget / sec_per_pct
            budget -= cost
            p = hi
        lo = hi
    return 100.0
