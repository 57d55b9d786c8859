"""Tests for scenario calibration from trip-record data."""

import gzip
from datetime import datetime, timedelta

import numpy as np
import pytest

from fleetlab.calibrate import (
    KWH_PER_MILE,
    TripRecord,
    calibrate,
    estimate_reference_fleet,
    read_region_map,
    read_trip_records,
    scale_fleet,
)
from fleetlab.errors import ConfigError, InvalidArgument
from fleetlab.fluid import upper_bound
from fleetlab.scenarios import synth_scenario

from oracles import max_concurrent_quadratic


TWO_REGIONS = {"A": 0, "B": 1}

# Monday 2024-01-01 is a filtered weekday
MONDAY = datetime(2024, 1, 1)


def _rec(u="A", v="B", when=MONDAY.replace(hour=0, minute=15), fare=12.0,
         dur=9.0, dist=2.0):
    return TripRecord(u, v, when, fare, dur, dist)


def test_record_validation():
    with pytest.raises(InvalidArgument):
        _rec(dur=0.0)
    with pytest.raises(InvalidArgument):
        _rec(fare=-1.0)
    with pytest.raises(InvalidArgument):
        _rec(dist=-0.5)


def test_single_record_hand_calibration():
    """One trip at minute 15 (epoch 3 of 5-minute epochs), fare 12, 9 min."""
    cfg = calibrate([_rec()], TWO_REGIONS, epoch_minutes=5.0)
    assert cfg.horizon_steps == 288
    assert cfg.arrival_rate[0, 1, 3] == 1.0
    assert cfg.arrival_rate[0, 1].sum() == 1.0  # nothing elsewhere
    assert cfg.trip_reward[0, 1, 3] == 12.0
    assert cfg.trip_duration[0, 1, 3] == 2  # ceil(9 / 5)
    # battery cost: 2 miles * 0.5 kWh/mile = 1 unit
    assert cfg.battery_cost[0, 1] == 1
    assert KWH_PER_MILE == 0.5


def test_two_identical_days_leave_rates_unchanged():
    day2 = MONDAY + timedelta(days=1)  # Tuesday, also filtered
    recs = [_rec(), _rec(when=day2.replace(hour=0, minute=15))]
    cfg = calibrate(recs, TWO_REGIONS, epoch_minutes=5.0)
    assert cfg.arrival_rate[0, 1, 3] == 1.0  # mean over 2 days


def test_duplicates_same_day_double_rate():
    recs = [_rec(), _rec()]
    cfg = calibrate(recs, TWO_REGIONS, epoch_minutes=5.0)
    assert cfg.arrival_rate[0, 1, 3] == 2.0


def test_five_minute_epochs_give_288_steps():
    cfg = calibrate([_rec()], TWO_REGIONS, epoch_minutes=5.0)
    assert cfg.horizon_steps == 288


def test_bad_epoch_length_rejected():
    with pytest.raises(ConfigError):
        calibrate([_rec()], TWO_REGIONS, epoch_minutes=7.0)
    # divide the day, but are shorter than a minute
    for short in (0.5, 1e-9):
        with pytest.raises(ConfigError):
            calibrate([_rec()], TWO_REGIONS, epoch_minutes=short)


def test_fractional_epoch_length_bins_by_true_length():
    """10:00 is minute 600: epoch 240 of 2.5-minute epochs (T = 576)."""
    cfg = calibrate([_rec(when=MONDAY.replace(hour=10))], TWO_REGIONS, epoch_minutes=2.5)
    assert cfg.horizon_steps == 576
    assert cfg.arrival_rate[0, 1, 240] == 1.0
    assert cfg.arrival_rate[0, 1].sum() == 1.0


def test_weekend_records_filtered_out():
    saturday = datetime(2024, 1, 6, 0, 15)
    with pytest.raises(ConfigError):
        calibrate([_rec(when=saturday)], TWO_REGIONS)


def test_intra_region_trips_ignored():
    recs = [_rec(), _rec(u="A", v="A")]
    cfg = calibrate(recs, TWO_REGIONS, epoch_minutes=5.0)
    assert cfg.arrival_rate[0, 0].sum() == 0.0


def test_unknown_zone_reported():
    with pytest.raises(ConfigError, match="zone"):
        calibrate([_rec(u="Z")], TWO_REGIONS)


def test_calibration_permutation_invariant():
    rng = np.random.default_rng(0)
    recs = []
    for _ in range(60):
        when = MONDAY.replace(hour=int(rng.integers(0, 24)),
                              minute=int(rng.integers(0, 60)))
        uv = ("A", "B") if rng.random() < 0.5 else ("B", "A")
        recs.append(_rec(u=uv[0], v=uv[1], when=when,
                         fare=float(rng.uniform(5, 20)),
                         dur=float(rng.uniform(4, 30)),
                         dist=float(rng.uniform(0.5, 6))))
    a = calibrate(recs, TWO_REGIONS)
    b = calibrate(list(reversed(recs)), TWO_REGIONS)
    np.testing.assert_array_equal(a.arrival_rate, b.arrival_rate)
    np.testing.assert_array_equal(a.trip_reward, b.trip_reward)
    np.testing.assert_array_equal(a.trip_duration, b.trip_duration)
    np.testing.assert_array_equal(a.battery_cost, b.battery_cost)


def test_scale_fleet():
    cfg = calibrate([_rec()], TWO_REGIONS, fleet_size=12800)
    out = scale_fleet(cfg, target_fleet=300, reference_fleet=12800)
    ratio = 300 / 12800
    assert out.fleet_size == 300
    np.testing.assert_allclose(out.arrival_rate, cfg.arrival_rate * ratio)
    assert out.demand_scale == pytest.approx(ratio)
    same = scale_fleet(cfg, 10, 10)
    assert same.fleet_size == 10
    np.testing.assert_array_equal(same.arrival_rate, cfg.arrival_rate)
    with pytest.raises(InvalidArgument):
        scale_fleet(cfg, 10, 0)


def test_scale_fleet_scales_chargers_with_the_fleet():
    """Chargers go by target/fleet, rounded half up, so four times the fleet
    and the demand gives four times the bound."""
    commute = synth_scenario("two-region-commute", seed=0)
    assert commute.fleet_size == 16
    big = scale_fleet(commute, 64, 16)
    np.testing.assert_array_equal(big.charger_counts, commute.charger_counts * 4)
    assert upper_bound(big).objective == pytest.approx(
        4 * upper_bound(commute).objective, rel=1e-9)
    cfg = commute.with_updates(charger_counts=np.array([[5], [3]]), fleet_size=4)
    # 5 * 6/4 = 7.5 rounds up to 8, 3 * 6/4 = 4.5 up to 5, 3 * 5/4 = 3.75 to 4
    np.testing.assert_array_equal(scale_fleet(cfg, 6, 4).charger_counts, [[8], [5]])
    np.testing.assert_array_equal(scale_fleet(cfg, 5, 4).charger_counts, [[6], [4]])


def test_reference_fleet_simple_cases():
    t0 = MONDAY.replace(hour=8)
    non_overlap = [_rec(when=t0, dur=10.0),
                   _rec(when=t0 + timedelta(minutes=30), dur=10.0)]
    assert estimate_reference_fleet(non_overlap) == 1
    overlap3 = [_rec(when=t0, dur=30.0),
                _rec(when=t0 + timedelta(minutes=10), dur=30.0),
                _rec(when=t0 + timedelta(minutes=20), dur=30.0)]
    assert estimate_reference_fleet(overlap3) == 3


def test_reference_fleet_matches_quadratic_oracle():
    rng = np.random.default_rng(1)
    recs = []
    intervals = []
    for _ in range(1000):
        start = MONDAY + timedelta(minutes=float(rng.uniform(0, 24 * 60)))
        dur = float(rng.uniform(1, 90))
        recs.append(_rec(when=start, dur=dur))
        s = start.timestamp()
        intervals.append((s, s + dur * 60.0))
    assert estimate_reference_fleet(recs) == max_concurrent_quadratic(intervals)


def test_read_trip_records_csv_and_gzip(tmp_path):
    header = "pickup_zone,dropoff_zone,pickup_timestamp,base_fare,duration_min,distance_miles\n"
    body = "A,B,2024-01-01T00:15:00,12.0,9.0,2.0\n"
    plain = tmp_path / "r.csv"
    plain.write_text(header + body)
    gz = tmp_path / "r.csv.gz"
    with gzip.open(gz, "wt") as f:
        f.write(header + body)
    for path in (plain, gz):
        recs = read_trip_records(path)
        assert len(recs) == 1
        assert recs[0].base_fare == 12.0


def test_read_trip_records_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("pickup_zone,dropoff_zone\nA,B\n")
    with pytest.raises(ConfigError, match="missing column"):
        read_trip_records(p)
    p2 = tmp_path / "bad2.csv"
    p2.write_text(
        "pickup_zone,dropoff_zone,pickup_timestamp,base_fare,duration_min,distance_miles\n"
        "A,B,not-a-date,12,9,2\n")
    with pytest.raises(ConfigError, match="bad2.csv:2"):
        read_trip_records(p2)


def test_read_region_map(tmp_path):
    p = tmp_path / "map.csv"
    p.write_text("zone,region\nA,0\nB,1\n")
    assert read_region_map(p) == {"A": 0, "B": 1}
    bad = tmp_path / "bad.csv"
    bad.write_text("zone\nA\n")
    with pytest.raises(ConfigError):
        read_region_map(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("zone,region\n")
    with pytest.raises(ConfigError, match="empty"):
        read_region_map(empty)


def test_read_region_map_rejects_negative_region(tmp_path):
    """A negative id would index the calibration arrays from the end."""
    p = tmp_path / "map.csv"
    p.write_text("zone,region\nA,0\nB,-1\n")
    with pytest.raises(ConfigError, match=r"map\.csv:3: negative region id -1"):
        read_region_map(p)


def test_backfill_gives_zero_demand_but_sane_duration():
    """Epochs with no data get lambda = 0 and a duration borrowed from the
    same pair's nearest populated epoch."""
    cfg = calibrate([_rec(dur=22.0)], TWO_REGIONS, epoch_minutes=5.0)
    # trip was at epoch 3 with ceil(22/5)=5 epochs; empty epoch far away
    # inherits that duration, demand stays zero
    assert cfg.trip_duration[0, 1, 100] == 5
    assert cfg.arrival_rate[0, 1, 100] == 0.0


def test_synth_scenarios_valid_and_deterministic():
    for name in ("uniform", "two-region-commute", "hub-spoke-imbalanced"):
        a = synth_scenario(name, seed=7)
        b = synth_scenario(name, seed=7)
        assert a.digest() == b.digest()
    with pytest.raises(InvalidArgument):
        synth_scenario("nope")


def test_commute_scenario_shape():
    cfg = synth_scenario("two-region-commute", seed=0)
    am = cfg.arrival_rate[0, 1]
    pm = cfg.arrival_rate[1, 0]
    assert am.sum() > 0 and pm.sum() > 0
    # morning demand precedes evening demand
    assert am.argmax() < pm.argmax()


# config.digest() of calibrate() on _digest_records(), recorded before
# calibrate built its epoch-constant tables once instead of once per epoch and
# took the per-pair trip counts from the (u, v, t) counts; neither may move a bit.
GOLDEN_CALIBRATION_DIGEST = "98603a70f47e25ee"


def _digest_records():
    """Two weeks of random trips between four zones in three regions, with
    weekend and intra-region trips that calibration drops, and no trip from
    region 2 to region 0, whose tables then take their defaults."""
    rng = np.random.default_rng(2024)
    zones = ("A", "B", "C", "D")
    recs = []
    for _ in range(400):
        u, v = rng.choice(4, size=2)
        if zones[u] == "D" and zones[v] == "A":
            continue
        when = MONDAY + timedelta(days=int(rng.integers(0, 14)),
                                  minutes=float(rng.uniform(0, 24 * 60)))
        recs.append(_rec(u=zones[u], v=zones[v], when=when,
                         fare=float(rng.uniform(5, 40)), dur=float(rng.uniform(2, 70)),
                         dist=float(rng.uniform(0.1, 30))))
    return recs


def test_calibration_matches_recorded_digest():
    region_map = {"A": 0, "B": 1, "C": 1, "D": 2}
    cfg = calibrate(_digest_records(), region_map, epoch_minutes=15.0, fleet_size=40)
    assert cfg.digest() == GOLDEN_CALIBRATION_DIGEST
