"""Calibration of a scenario from trip-record data.

Input is a CSV of individual trips (pickup/dropoff zone, pickup timestamp,
base fare, duration in minutes, distance in miles) plus a zone->region map.
Weekday filtering (Monday-Thursday) keeps days with a common
demand pattern; per-(origin, destination, epoch) arrival rates are the mean
trip counts over the filtered days, fares are averaged, durations are
averaged and rounded up to whole epochs, and battery costs follow from mean
distance at a fixed energy-per-mile figure. Vehicles, chargers and prices
are the fixed assumptions below; charge rates, battery capacity and charger
counts can then vary on the returned config.
"""

from __future__ import annotations

import csv
import gzip
import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .config import NetworkConfig
from .errors import ConfigError, InvalidArgument

REQUIRED_COLUMNS = ("pickup_zone", "dropoff_zone", "pickup_timestamp",
                    "base_fare", "duration_min", "distance_miles")

#: 65 kWh pack over a 130-mile range
KWH_PER_MILE = 0.5
#: battery units per vehicle; one unit is 1 kWh
BATTERY_CAPACITY = 65
#: battery units (kWh) gained per step, one entry per charger type
CHARGE_RATES = (3,)
#: steps one charging session lasts
CHARGE_PERIOD = 6
#: steps a vehicle may have left on its current task and still take a trip
PICKUP_PATIENCE = 1
#: steps a queued trip request waits before it expires
CONNECTION_PATIENCE = 1
#: chargers of each type per region
CHARGERS_PER_REGION = 300
#: dollars per mile driven to reposition
PER_MILE_COST = 1.0
#: dollars per battery unit (kWh) of charge rate, paid when a session starts
ENERGY_PRICE_PER_UNIT = 0.3


@dataclass(frozen=True)
class TripRecord:
    pickup_zone: str
    dropoff_zone: str
    pickup_timestamp: datetime
    base_fare: float
    duration_min: float
    distance_miles: float

    def __post_init__(self):
        if self.duration_min <= 0:
            raise InvalidArgument(f"nonpositive duration {self.duration_min}")
        if self.distance_miles < 0 or self.base_fare < 0:
            raise InvalidArgument("negative fare or distance")


def _open_maybe_gzip(path):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rt")
    return open(path, newline="")


def read_trip_records(path) -> list[TripRecord]:
    with _open_maybe_gzip(path) as f:
        reader = csv.DictReader(f)
        missing = [c for c in REQUIRED_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise ConfigError(f"{path}: missing column(s) {', '.join(missing)}")
        records = []
        for lineno, row in enumerate(reader, start=2):
            try:
                records.append(TripRecord(
                    pickup_zone=row["pickup_zone"].strip(),
                    dropoff_zone=row["dropoff_zone"].strip(),
                    pickup_timestamp=datetime.fromisoformat(row["pickup_timestamp"].strip()),
                    base_fare=float(row["base_fare"]),
                    duration_min=float(row["duration_min"]),
                    distance_miles=float(row["distance_miles"]),
                ))
            except (ValueError, InvalidArgument) as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return records


def read_region_map(path) -> dict[str, int]:
    """CSV with columns zone,region."""
    with _open_maybe_gzip(path) as f:
        reader = csv.DictReader(f)
        if not reader.fieldnames or "zone" not in reader.fieldnames \
                or "region" not in reader.fieldnames:
            raise ConfigError(f"{path}: region map needs 'zone' and 'region' columns")
        out = {}
        for lineno, row in enumerate(reader, start=2):
            try:
                region = int(row["region"])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
            if region < 0:
                raise ConfigError(f"{path}:{lineno}: negative region id {region}")
            out[row["zone"].strip()] = region
    if not out:
        raise ConfigError(f"{path}: empty region map")
    return out


WEEKDAY_FILTER = (0, 1, 2, 3)               # Monday .. Thursday


def kept_trips(records: list[TripRecord], region_map: dict[str, int]
               ) -> tuple[set, list[tuple[TripRecord, int, int]]]:
    """What calibration keeps of the records: the Monday-Thursday dates seen,
    and the trips on them between distinct regions, each with its (origin,
    destination) regions."""
    weekday = [r for r in records if r.pickup_timestamp.weekday() in WEEKDAY_FILTER]
    if not weekday:
        raise ConfigError("no records left after the day-of-week filter")
    trips = []
    for r in weekday:
        try:
            u = region_map[r.pickup_zone]
            v = region_map[r.dropoff_zone]
        except KeyError as exc:
            raise ConfigError(f"zone {exc} missing from region map") from exc
        if u != v:                          # intra-region trips are out of model
            trips.append((r, u, v))
    return {r.pickup_timestamp.date() for r in weekday}, trips


def _backfill(values: np.ndarray, counts: np.ndarray, default: float) -> np.ndarray:
    """Fill empty (u,v,t) cells from the same pair's time-neighbor average."""
    V, _, T = values.shape
    out = values.copy()
    for u in range(V):
        for v in range(V):
            have = counts[u, v] > 0
            if not have.any():
                out[u, v, :] = default
                continue
            if have.all():
                continue
            ts = np.nonzero(have)[0]
            for t in np.nonzero(~have)[0]:
                d = np.minimum(np.abs(ts - t), T - np.abs(ts - t))
                nearest = ts[d == d.min()]
                out[u, v, t] = values[u, v, nearest].mean()
    return out


def calibrate(records: list[TripRecord], region_map: dict[str, int],
              epoch_minutes: float = 5.0, fleet_size: int = 300,
              name: str = "calibrated") -> NetworkConfig:
    """Build a scenario from trip records. Arrival rates are mean counts per
    filtered day; unseen (u,v,t) cells get zero demand with duration and fare
    backfilled from the nearest populated epoch of the same pair."""
    if not epoch_minutes >= 1:
        raise ConfigError(f"epoch length must be >= 1 minute, got {epoch_minutes}")
    V = max(region_map.values()) + 1
    T = int(round(24 * 60 / epoch_minutes))
    if not math.isclose(T * epoch_minutes, 24 * 60):
        raise ConfigError(f"epoch length {epoch_minutes} min does not divide the day")

    days, trips = kept_trips(records, region_map)

    counts = np.zeros((V, V, T))
    fares = np.zeros((V, V, T))
    durations = np.zeros((V, V, T))
    distances = np.zeros((V, V))
    for r, u, v in trips:
        minute_of_day = (r.pickup_timestamp.hour * 60 + r.pickup_timestamp.minute
                         + r.pickup_timestamp.second / 60)
        t = min(int(minute_of_day // epoch_minutes), T - 1)
        counts[u, v, t] += 1
        fares[u, v, t] += r.base_fare
        durations[u, v, t] += r.duration_min
        distances[u, v] += r.distance_miles
    dist_counts = counts.sum(axis=2)
    diagonal = np.eye(V, dtype=bool)

    arrival = counts / len(days)            # kept trips join distinct regions
    with np.errstate(invalid="ignore"):
        mean_fare = np.where(counts > 0, fares / np.maximum(counts, 1), 0.0)
        mean_dur = np.where(counts > 0, durations / np.maximum(counts, 1), 0.0)
    mean_fare = _backfill(mean_fare, counts, default=0.0)
    mean_dur = _backfill(mean_dur, counts, default=epoch_minutes)

    tau = np.ceil(mean_dur / epoch_minutes - 1e-9).astype(np.int64)
    tau = np.where(diagonal[:, :, None], 1, np.maximum(tau, PICKUP_PATIENCE + 1))

    mean_dist = np.where(dist_counts > 0, distances / np.maximum(dist_counts, 1), 0.0)
    cost = np.ceil(mean_dist * KWH_PER_MILE - 1e-9).astype(np.int64)
    cost = np.where(diagonal, 0, np.maximum(cost, 1))
    cost = np.minimum(cost, BATTERY_CAPACITY)

    reposition = np.where(diagonal, 0.0, -PER_MILE_COST * mean_dist)
    reposition = np.repeat(reposition[:, :, None], T, axis=2)
    charge_reward = np.repeat([[-ENERGY_PRICE_PER_UNIT * r] for r in CHARGE_RATES], T, axis=1)

    return NetworkConfig(
        num_regions=V, fleet_size=fleet_size, battery_capacity=BATTERY_CAPACITY,
        horizon_steps=T, epoch_minutes=epoch_minutes, charge_rates=CHARGE_RATES,
        charge_period=CHARGE_PERIOD,
        charger_counts=np.full((V, len(CHARGE_RATES)), CHARGERS_PER_REGION, dtype=np.int64),
        pickup_patience=PICKUP_PATIENCE, connection_patience=CONNECTION_PATIENCE,
        trip_duration=tau, battery_cost=cost, arrival_rate=arrival,
        trip_reward=mean_fare, reposition_reward=reposition,
        charge_reward=charge_reward, charging_curve=None,
        demand_scale=None, name=name)


def scale_fleet(config: NetworkConfig, target_fleet: int,
                reference_fleet: int) -> NetworkConfig:
    """Resize the fleet to ``target_fleet`` and scale the arrival rates by
    target/reference, recording that ratio as ``demand_scale``, so demand
    keeps its ratio to the fleet. Charger counts scale with the fleet,
    target/``config.fleet_size``, rounded to the nearest integer, halves up."""
    if reference_fleet <= 0:
        raise InvalidArgument("reference_fleet must be positive")
    ratio = target_fleet / reference_fleet
    N = config.fleet_size
    chargers = (2 * config.charger_counts * target_fleet + N) // (2 * N)
    return config.with_updates(fleet_size=target_fleet,
                               arrival_rate=config.arrival_rate * ratio,
                               charger_counts=chargers, demand_scale=ratio)


def estimate_reference_fleet(records: list[TripRecord]) -> int:
    """Maximum number of simultaneously active trips (sweep line)."""
    events = []
    for r in records:
        start = r.pickup_timestamp.timestamp()
        events.append((start, 1))
        events.append((start + r.duration_min * 60.0, -1))
    events.sort()
    best = cur = 0
    for _, delta in events:
        cur += delta
        best = max(best, cur)
    return best
