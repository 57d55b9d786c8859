"""Scenario description: network, demand, rewards, chargers, charging curve.

A :class:`NetworkConfig` is an immutable value object.  All dense tables are
numpy arrays marked read-only, so configs can be shared freely between
threads and worker processes.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, replace
from typing import Optional

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


def _ro(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class NetworkConfig:
    """Immutable description of one simulation scenario.

    Battery is an integer grid.  ``battery_cost[u, v]`` is the (rounded-up)
    battery units consumed travelling u -> v; ``charge_rates`` are integer
    battery units gained per step.  Trips between a region and itself are
    excluded from the model: the diagonal of ``arrival_rate`` must be zero.
    """

    num_regions: int
    fleet_size: int
    battery_capacity: int
    horizon_steps: int
    epoch_minutes: float
    charge_rates: tuple[int, ...]
    charge_period: int
    charger_counts: np.ndarray          # (V, R) int
    pickup_patience: int
    connection_patience: int
    trip_duration: np.ndarray           # (V, V, T) int, steps
    battery_cost: np.ndarray            # (V, V) int, battery units
    arrival_rate: np.ndarray            # (V, V, T) float, mean arrivals
    trip_reward: np.ndarray             # (V, V, T) float, >= 0
    reposition_reward: np.ndarray       # (V, V, T) float, <= 0
    charge_reward: np.ndarray           # (R, T) float, <= 0
    charging_curve: Optional[ChargingCurve] = None
    demand_scale: Optional[float] = None
    name: str = "unnamed"

    def __post_init__(self):
        object.__setattr__(self, "charge_rates", tuple(int(r) for r in self.charge_rates))
        object.__setattr__(self, "charger_counts", _ro(np.asarray(self.charger_counts, dtype=np.int64)))
        object.__setattr__(self, "trip_duration", _ro(np.asarray(self.trip_duration, dtype=np.int64)))
        object.__setattr__(self, "battery_cost", _ro(np.asarray(self.battery_cost, dtype=np.int64)))
        for f in ("arrival_rate", "trip_reward", "reposition_reward", "charge_reward"):
            object.__setattr__(self, f, _ro(np.asarray(getattr(self, f), dtype=np.float64)))
        if self.charging_curve is not None:
            object.__setattr__(
                self,
                "charging_curve",
                tuple((float(p), float(s)) for p, s in self.charging_curve),
            )
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
        if self.charger_counts.shape != (V, R):
            problems.append(f"charger_counts shape {self.charger_counts.shape} != {(V, R)}")
        for f, shape in (
            ("trip_duration", (V, V, T)),
            ("arrival_rate", (V, V, T)),
            ("trip_reward", (V, V, T)),
            ("reposition_reward", (V, V, T)),
        ):
            if getattr(self, f).shape != shape:
                problems.append(f"{f} shape {getattr(self, f).shape} != {shape}")
        if self.battery_cost.shape != (V, V):
            problems.append(f"battery_cost shape {self.battery_cost.shape} != {(V, V)}")
        if self.charge_reward.shape != (R, T):
            problems.append(f"charge_reward shape {self.charge_reward.shape} != {(R, T)}")
        if problems:
            raise ConfigError("; ".join(problems))

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
        if self.charging_curve is not None:
            bounds = [p for p, _ in self.charging_curve]
            if bounds != sorted(bounds) or bounds[-1] != 100.0 or any(s <= 0 for _, s in self.charging_curve):
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
        return {
            "schema": SCHEMA,
            "name": self.name,
            "dims": {
                "num_regions": self.num_regions,
                "fleet_size": self.fleet_size,
                "battery_capacity": self.battery_capacity,
                "horizon_steps": self.horizon_steps,
                "num_rates": self.num_rates,
            },
            "epoch_minutes": self.epoch_minutes,
            "charge_rates": list(self.charge_rates),
            "charge_period": self.charge_period,
            "pickup_patience": self.pickup_patience,
            "connection_patience": self.connection_patience,
            "charger_counts": self.charger_counts.tolist(),
            "trip_duration": self.trip_duration.tolist(),
            "battery_cost": self.battery_cost.tolist(),
            "arrival_rate": self.arrival_rate.tolist(),
            "trip_reward": self.trip_reward.tolist(),
            "reposition_reward": self.reposition_reward.tolist(),
            "charge_reward": self.charge_reward.tolist(),
            "charging_curve": (
                None if self.charging_curve is None else [list(band) for band in self.charging_curve]
            ),
            "demand_scale": self.demand_scale,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "NetworkConfig":
        """Config from its dict form; a missing or badly typed field raises
        ConfigError."""
        schema = doc.get("schema") if isinstance(doc, dict) else None
        if schema != SCHEMA:
            raise ConfigError(f"unsupported schema {schema!r}, expected {SCHEMA!r}")
        try:
            dims = doc["dims"]
            curve = doc.get("charging_curve")
            return cls(
                num_regions=dims["num_regions"],
                fleet_size=dims["fleet_size"],
                battery_capacity=dims["battery_capacity"],
                horizon_steps=dims["horizon_steps"],
                epoch_minutes=doc["epoch_minutes"],
                charge_rates=tuple(doc["charge_rates"]),
                charge_period=doc["charge_period"],
                charger_counts=np.array(doc["charger_counts"]),
                pickup_patience=doc["pickup_patience"],
                connection_patience=doc["connection_patience"],
                trip_duration=np.array(doc["trip_duration"]),
                battery_cost=np.array(doc["battery_cost"]),
                arrival_rate=np.array(doc["arrival_rate"]),
                trip_reward=np.array(doc["trip_reward"]),
                reposition_reward=np.array(doc["reposition_reward"]),
                charge_reward=np.array(doc["charge_reward"]),
                charging_curve=None if curve is None else tuple(tuple(b) for b in curve),
                demand_scale=doc.get("demand_scale"),
                name=doc.get("name", "unnamed"),
            )
        except KeyError as exc:
            raise ConfigError(f"config is missing field {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config has a badly typed field: {exc}") from None

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


# -- charging-curve arithmetic ---------------------------------------------


def curve_seconds(curve: ChargingCurve, p0: float, p1: float) -> float:
    """Seconds needed to charge from p0% to p1% along the piecewise profile."""
    if p1 <= p0:
        return 0.0
    total = 0.0
    lo = 0.0
    for hi, sec_per_pct in curve:
        seg_lo = max(lo, p0)
        seg_hi = min(hi, p1)
        if seg_hi > seg_lo:
            total += (seg_hi - seg_lo) * sec_per_pct
        lo = hi
    return total


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
