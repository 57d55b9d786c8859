import numpy as np
import pytest

from fleetlab.config import (DEFAULT_CHARGING_CURVE, NetworkConfig,
                             curve_percent_after, curve_seconds)
from fleetlab.errors import ConfigError

from conftest import tiny_config
from oracles import curve_band_seconds


def test_round_trip_json_is_bit_exact(tmp_path, tiny):
    path = tmp_path / "cfg.json"
    tiny.save(path)
    back = NetworkConfig.load(path)
    assert back.to_json() == tiny.to_json()
    assert (back.arrival_rate == tiny.arrival_rate).all()
    assert (back.trip_duration == tiny.trip_duration).all()
    assert (back.trip_reward == tiny.trip_reward).all()
    assert back.digest() == tiny.digest()


def test_digest_changes_with_content(tiny):
    other = tiny.with_updates(fleet_size=tiny.fleet_size + 1)
    assert other.digest() != tiny.digest()


def test_validation_catches_diagonal_demand():
    with pytest.raises(ConfigError):
        cfg = tiny_config()
        lam = cfg.arrival_rate.copy()
        lam[0, 0, 0] = 1.0
        cfg.with_updates(arrival_rate=lam)


def test_validation_requires_duration_above_patience():
    with pytest.raises(ConfigError):
        tiny_config(tau=1, L_p=1)


def test_validation_requires_charge_period_above_patience():
    with pytest.raises(ConfigError):
        tiny_config(J=1, L_p=1)


def test_eta_cap_covers_all_tasks(tiny):
    tau_max = tiny.max_offdiag_duration()
    assert tiny.eta_cap >= tiny.pickup_patience + tau_max - 1
    assert tiny.eta_cap >= tiny.charge_period - 1


def test_charging_curve_band_durations_match_direct_integration():
    # 0 -> 10% crosses only the first band: 10 * 47 s
    assert curve_seconds(DEFAULT_CHARGING_CURVE, 0.0, 10.0) == pytest.approx(470.0)
    assert curve_band_seconds(DEFAULT_CHARGING_CURVE, 0.0, 10.0) == pytest.approx(470.0)
    for lo, hi in ((0, 40), (10, 60), (55, 95), (0, 100), (80, 90)):
        assert curve_seconds(DEFAULT_CHARGING_CURVE, lo, hi) == pytest.approx(
            curve_band_seconds(DEFAULT_CHARGING_CURVE, lo, hi))


def test_curve_percent_after_inverts_curve_seconds():
    for start in (0.0, 25.0, 70.0):
        for seconds in (60.0, 470.0, 1200.0):
            pct = curve_percent_after(DEFAULT_CHARGING_CURVE, start, seconds)
            assert curve_seconds(DEFAULT_CHARGING_CURVE, start, pct) == pytest.approx(
                seconds, abs=1e-6) or pct == 100.0


def test_charge_result_linear_and_capped(tiny):
    assert tiny.charge_result(0, 1) == min(tiny.charge_period, tiny.battery_capacity)
    assert tiny.charge_result(tiny.battery_capacity, 1) == tiny.battery_capacity


def test_effective_demand_scale_defaults_to_peak_demand(tiny):
    none_scale = tiny.with_updates(demand_scale=None)
    peak = max(1.0, float(tiny.arrival_rate.sum(axis=(0, 1)).max()))
    assert none_scale.effective_demand_scale() == pytest.approx(peak)
    assert tiny.effective_demand_scale() == pytest.approx(1.0)


@pytest.mark.parametrize("mutate", [
    lambda doc: doc["dims"].pop("fleet_size"),
    lambda doc: doc.pop("charge_reward"),
    lambda doc: doc.update(trip_duration="abc"),
    lambda doc: doc.update(dims=5),
    lambda doc: doc.update(charge_rates=None),
], ids=["missing-dims-key", "missing-top-key", "typed-array", "typed-dims", "typed-rates"])
def test_malformed_dict_raises_config_error(tiny, mutate):
    doc = tiny.to_dict()
    mutate(doc)
    with pytest.raises(ConfigError):
        NetworkConfig.from_dict(doc)


@pytest.mark.parametrize("text", ["not json", "", "[1, 2]", "{\"schema\": 3}"])
def test_malformed_json_raises_config_error(text):
    with pytest.raises(ConfigError):
        NetworkConfig.from_json(text)
