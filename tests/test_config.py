import hashlib

import numpy as np
import pytest

from fleetlab.config import (DEFAULT_CHARGING_CURVE, NetworkConfig,
                             curve_percent_after)
from fleetlab.errors import ConfigError
from fleetlab.scenarios import synth_scenario

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


# SHA-256 of synth_scenario(template, seed).to_json(), recorded when each
# template was still written out as its own constructor call
GOLDEN_TEMPLATE_JSON = {
    ("uniform", 0): "d8494b4091ccdae12c3a340bc8bff4fddaf513699775ef8229b034b892298d82",
    ("uniform", 1): "67946c38cdfbd3ae5f1c3427da59ab7a03deab7714686c89314ff83c64cbe389",
    ("uniform", 7): "e0b837bbe720427bc96b88a77cddc7731ef2a9ec5355cd53fdde54e52f7de177",
    ("two-region-commute", 0): "5c1b6ea9de10519ac283164b5b5b7a96d55bf0b35fc0ae7a3524c60d4af85c18",
    ("two-region-commute", 1): "280d364bc18c803e395deae1a05d704bb735992d15a1d0ad0218a65cfd969568",
    ("two-region-commute", 7): "4e915c626e9a6a79497bfc3c7e2c1481a0f2293a5246fbfcab3338ad2335e97c",
    ("hub-spoke-imbalanced", 0): "0773d21bf5df1d3d086949fbd91030cb99a0a79f7627ed0714733ce75e2dd77d",
    ("hub-spoke-imbalanced", 1): "8984d67506d3a3090618055f9befdca0fcb0fa104077ff3fa82f1b10786204c3",
    ("hub-spoke-imbalanced", 7): "3f41d2688550ae44c1d11190af82347427ca0d4bbf4a04f9c6332f9997379da4",
}


def test_templates_match_recorded_digests():
    for (template, seed), digest in GOLDEN_TEMPLATE_JSON.items():
        text = synth_scenario(template, seed).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (template, seed)


def test_fields_are_stored_as_declared(tiny):
    """numpy integers become int, a curve's bands float, and epoch_minutes
    keeps the type it was given."""
    other = tiny.with_updates(fleet_size=np.int64(tiny.fleet_size), charge_rates=(np.int32(1),))
    assert type(other.fleet_size) is int and type(other.charge_rates[0]) is int
    assert other.to_json() == tiny.to_json()
    curved = tiny.with_updates(charging_curve=((50, 3), (100, 3)))
    assert all(type(x) is float for band in curved.charging_curve for x in band)
    assert type(tiny.epoch_minutes) is int and '"epoch_minutes": 5,' in tiny.to_json()
    assert type(tiny.with_updates(epoch_minutes=5.0).epoch_minutes) is float


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


def _entry(name, index, value):
    """tiny_config's table ``name`` with ``value`` at ``index``, as an update."""
    table = getattr(tiny_config(), name).copy()
    table[index] = value
    return {name: table}


# one case per NetworkConfig.validate rule, each breaking that rule alone
@pytest.mark.parametrize("update, message", [
    ({"fleet_size": 0}, "V, N, B, T must all be positive"),
    ({"battery_cost": np.zeros((3, 3), dtype=np.int64)}, "battery_cost shape (3, 3) != (2, 2)"),
    ({"epoch_minutes": 0}, "epoch_minutes and demand_scale must be positive"),
    ({"charge_rates": (0,)}, "charge_rates must be distinct positive integers"),
    (_entry("trip_reward", (0, 1, 0), -1.0), "trip_reward must be nonnegative"),
    (_entry("battery_cost", (0, 1), 4), "battery_cost must not exceed battery_capacity"),
    (_entry("arrival_rate", (0, 1, 0), -0.5), "arrival_rate must be nonnegative"),
    (_entry("battery_cost", (0, 0), 1), "battery_cost diagonal must be 0"),
    (_entry("reposition_reward", (0, 0, 0), -1.0), "reposition_reward diagonal must be 0"),
    (_entry("reposition_reward", (0, 1, 0), 1.0), "reposition_reward must be nonpositive"),
    (_entry("charge_reward", (0, 0), 1.0), "charge_reward must be nonpositive"),
    (_entry("charger_counts", (0, 0), -1), "charger_counts must be nonnegative"),
    (_entry("trip_duration", (0, 0, 0), 0), "trip_duration must be at least 1 step"),
    ({"connection_patience": -1}, "patience windows must be nonnegative"),
], ids=["positive-dims", "table-shapes", "positive-epoch-minutes", "positive-charge-rates",
        "trip-reward", "battery-cost-cap", "arrival-rate", "battery-cost-diagonal",
        "reposition-diagonal", "reposition-reward", "charge-reward", "charger-counts",
        "trip-duration", "patience"])
def test_validation_rule_rejects_its_breach(tiny, update, message):
    with pytest.raises(ConfigError) as err:
        tiny.with_updates(**update)
    assert str(err.value) == message


def test_eta_cap_covers_all_tasks(tiny):
    tau_max = tiny.max_offdiag_duration()
    assert tiny.eta_cap >= tiny.pickup_patience + tau_max - 1
    assert tiny.eta_cap >= tiny.charge_period - 1


def test_charging_curve_band_durations_match_direct_integration():
    # 0 -> 10% crosses only the first band: 10 * 47 s
    assert curve_band_seconds(DEFAULT_CHARGING_CURVE, 0.0, 10.0) == pytest.approx(470.0)

    def per_percent(lo, hi):
        """Sum of each whole percent's rate, the band that holds it."""
        return sum(next(rate for bound, rate in DEFAULT_CHARGING_CURVE if p < bound)
                   for p in range(lo, hi))

    for lo, hi in ((0, 40), (10, 60), (55, 95), (0, 100), (80, 90)):
        assert curve_band_seconds(DEFAULT_CHARGING_CURVE, lo, hi) == pytest.approx(
            per_percent(lo, hi))


def test_curve_percent_after_inverts_curve_seconds():
    for start in (0.0, 25.0, 70.0):
        for seconds in (60.0, 470.0, 1200.0):
            pct = curve_percent_after(DEFAULT_CHARGING_CURVE, start, seconds)
            assert curve_band_seconds(DEFAULT_CHARGING_CURVE, start, pct) == pytest.approx(
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
    lambda doc: doc["dims"].update(num_rates=7),
    lambda doc: doc["dims"].update(num_rates="one"),
    lambda doc: doc["dims"].update(fleet_size=2 ** 63),
], ids=["missing-dims-key", "missing-top-key", "typed-array", "typed-dims", "typed-rates",
        "wrong-num-rates", "typed-num-rates", "int64-overflowing-fleet"])
def test_malformed_dict_raises_config_error(tiny, mutate):
    doc = tiny.to_dict()
    mutate(doc)
    with pytest.raises(ConfigError):
        NetworkConfig.from_dict(doc)


@pytest.mark.parametrize("text", ["not json", "", "[1, 2]", "{\"schema\": 3}"])
def test_malformed_json_raises_config_error(text):
    with pytest.raises(ConfigError):
        NetworkConfig.from_json(text)
