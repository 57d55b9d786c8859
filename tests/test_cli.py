"""End-to-end tests of the command-line interface."""

import json
import os
import re
import subprocess
import sys
from datetime import datetime, timedelta
from itertools import takewhile
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_config
from fleetlab import fluid, nn, ppo, sim
from fleetlab.baselines import RandomFeasiblePolicy
from fleetlab.calibrate import estimate_reference_fleet, read_trip_records
from fleetlab.cli import evaluate, main, parse_policy
from fleetlab.config import NetworkConfig
from fleetlab.scenarios import synth_scenario
from fleetlab.simplex import export_mps

CLI = [sys.executable, "-m", "fleetlab.cli"]


def run_cli(*args, env_extra=None, cwd=None):
    env = os.environ.copy()
    env.pop("FLEETLAB_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=env, cwd=cwd)


@pytest.fixture(scope="module")
def tiny_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    path.write_text(tiny_config(lam_scale=0.8).to_json())
    return str(path)


def test_help_exits_zero():
    r = run_cli("--help")
    assert r.returncode == 0
    assert "bound" in r.stdout


def test_bound_on_tiny_config(tiny_json, tmp_path):
    out = tmp_path / "bound.json"
    r = run_cli("bound", "--config", tiny_json, "--out", str(out))
    assert r.returncode == 0, r.stderr
    payload = json.loads(out.read_text())
    assert payload["objective"] > 0
    assert payload["formulation"] in ("full", "reduced")


def test_bound_mps_export(tiny_json, tmp_path):
    mps = tmp_path / "prob.mps"
    r = run_cli("bound", "--config", tiny_json, "--mps", str(mps))
    assert r.returncode == 0, r.stderr
    text = mps.read_text()
    for section in ("NAME", "ROWS", "COLUMNS", "RHS", "ENDATA"):
        assert section in text


def test_bound_full_formulation_mps(tiny_json, tmp_path):
    """--formulation full solves and exports the full LP, not the reduced one."""
    out, mps, want = tmp_path / "bound.json", tmp_path / "full.mps", tmp_path / "want.mps"
    r = run_cli("bound", "--config", tiny_json, "--formulation", "full",
                "--out", str(out), "--mps", str(mps))
    assert r.returncode == 0, r.stderr
    config = NetworkConfig.load(tiny_json)
    payload = json.loads(out.read_text())
    assert payload["formulation"] == "full"
    assert payload["objective"] == fluid.upper_bound(config, formulation="full").objective
    export_mps(fluid.build_full_lp(config)[0], want)
    assert mps.read_bytes() == want.read_bytes()
    assert "full formulation" in r.stdout


def test_scenario_flag_builds_seeded_template(tmp_path):
    out = tmp_path / "eval.json"
    r = run_cli("--seed", "2", "evaluate", "--scenario", "two-region-commute",
                "--policy", "random", "--trajectories", "1", "--days", "1",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    config = synth_scenario("two-region-commute", seed=2)
    payload = json.loads(out.read_text())
    assert payload["config_digest"] == config.digest()
    score = sim.score_trajectory(config, RandomFeasiblePolicy(), 1, (2, 5, 0, 11))
    assert payload["mean_daily_reward"] == sim.summarize_scores([score])["mean_daily_reward"]


def test_fluid_policy_routes(tiny_json, tmp_path):
    """evaluate and compare roll the rounding policy of the config's own bound."""
    ev, cmp = tmp_path / "eval.json", tmp_path / "cmp.json"
    r = run_cli("--seed", "4", "evaluate", "--config", tiny_json, "--policy", "fluid",
                "--trajectories", "2", "--days", "2", "--out", str(ev))
    assert r.returncode == 0, r.stderr
    r = run_cli("--seed", "4", "compare", "--config", tiny_json, "--policies", "random",
                "fluid", "--trajectories", "2", "--days", "2", "--out", str(cmp))
    assert r.returncode == 0, r.stderr
    config = NetworkConfig.load(tiny_json)
    bound = fluid.upper_bound(config)
    want = sim.summarize_scores([
        sim.score_trajectory(config, fluid.FluidRoundingPolicy(config, bound), 2, (4, 5, k, 11))
        for k in range(2)])["mean_daily_reward"]
    assert json.loads(ev.read_text())["mean_daily_reward"] == want
    rows = {p["policy"]: p for p in json.loads(cmp.read_text())["policies"]}
    assert rows["fluid"]["mean_daily_reward"] == want


def test_evaluate_deterministic_same_seed(tiny_json, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        r = run_cli("--seed", "7", "evaluate", "--config", tiny_json,
                    "--policy", "power-of-k:2",
                    "--trajectories", "2", "--days", "2", "--jobs", "1",
                    "--out", str(out))
        assert r.returncode == 0, r.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]  # byte-identical


def test_evaluate_seed_env_override(tiny_json, tmp_path):
    out1, out2 = tmp_path / "e1.json", tmp_path / "e2.json"
    r = run_cli("--seed", "1", "evaluate", "--config", tiny_json,
                "--policy", "random",
                "--trajectories", "1", "--days", "1", "--jobs", "1",
                "--out", str(out1))
    assert r.returncode == 0, r.stderr
    r = run_cli("--seed", "999", "evaluate", "--config", tiny_json,
                "--policy", "random",
                "--trajectories", "1", "--days", "1", "--jobs", "1",
                "--out", str(out2),
                env_extra={"FLEETLAB_SEED": "1"})
    assert r.returncode == 0, r.stderr
    assert out1.read_bytes() == out2.read_bytes()


def test_evaluate_trace_csv(tiny_json, tmp_path):
    trace = tmp_path / "trace.csv"
    r = run_cli("evaluate", "--config", tiny_json, "--policy", "random",
                "--trajectories", "1", "--days", "1", "--jobs", "1",
                "--trace-csv", str(trace))
    assert r.returncode == 0, r.stderr
    lines = trace.read_text().splitlines()
    assert lines[0] == "day,epoch,reward,idle,busy,charging"
    assert len(lines) > 1


@pytest.mark.parametrize("policy", ["random", "power-of-2", "fluid", "ppo"])
def test_evaluate_report_independent_of_jobs(tiny_json, checkpoints, tmp_path, policy):
    """One policy instance serves every trajectory, serially or copied into
    worker processes; the intent-queue policies must not carry state over."""
    outputs = []
    for jobs in ("1", "2"):
        out, trace = tmp_path / f"j{jobs}.json", tmp_path / f"j{jobs}.csv"
        r = run_cli("--seed", "3", "evaluate", "--config", tiny_json,
                    "--policy", policy, "--checkpoint", str(checkpoints / "policy.bin"),
                    "--trajectories", "3", "--days", "2",
                    "--jobs", jobs, "--out", str(out), "--trace-csv", str(trace))
        assert r.returncode == 0, r.stderr
        outputs.append((r.stdout, out.read_bytes(), trace.read_bytes()))
    assert outputs[0] == outputs[1]


class _CountedPickles(RandomFeasiblePolicy):
    """A random policy that counts how often it is pickled."""
    pickles = 0

    def __reduce__(self):
        type(self).pickles += 1
        return type(self), ()


def test_evaluate_sends_the_policy_once_per_worker():
    config = synth_scenario("uniform", 0)
    _CountedPickles.pickles = 0
    report = evaluate(config, "random", _CountedPickles(), 6, 1, seed=0, jobs=2)
    assert _CountedPickles.pickles == 2
    assert report == evaluate(config, "random", RandomFeasiblePolicy(), 6, 1, seed=0)


def test_missing_checkpoint_exit_3(tiny_json, tmp_path):
    r = run_cli("evaluate", "--config", tiny_json, "--policy", "ppo",
                "--checkpoint", str(tmp_path / "nope.bin"),
                "--trajectories", "1", "--days", "1", "--jobs", "1")
    assert r.returncode == 3


def _malformed_configs() -> dict[str, bytes]:
    """Config files that must exit 2 with one line: wrong schema, not JSON,
    not text, not an object, a missing field, badly typed fields, values
    that break a validation rule, a num_rates that disagrees with
    charge_rates, a fleet too large for the int64 count tables and one that
    fits them but not in memory."""
    def variant(edit):
        doc = tiny_config().to_dict()
        edit(doc)
        return json.dumps(doc).encode()

    def entry(key, value):
        def edit(doc):
            doc[key][0][1][0] = value
        return edit

    return {
        "schema": b'{"not": "a config"}',
        "not-json": b"not json",
        "binary": b"\xff\xfe\x00",
        "list": b"[1, 2]",
        "missing-fleet-size": variant(lambda d: d["dims"].pop("fleet_size")),
        "typed-duration": variant(lambda d: d.update(trip_duration="abc")),
        "typed-regions": variant(lambda d: d["dims"].update(num_regions="two")),
        "fractional-fleet": variant(lambda d: d["dims"].update(fleet_size=2.5)),
        "float-charge-period": variant(lambda d: d.update(charge_period=3.0)),
        "fractional-connection-patience": variant(lambda d: d.update(connection_patience=1.5)),
        "empty-charging-curve": variant(lambda d: d.update(charging_curve=[])),
        "nan-arrival-rate": variant(entry("arrival_rate", float("nan"))),
        "infinite-trip-reward": variant(entry("trip_reward", float("inf"))),
        "fractional-charge-rate": variant(lambda d: d.update(charge_rates=[2.5])),
        "fractional-trip-duration": variant(entry("trip_duration", 2.7)),
        "string-epoch-minutes": variant(lambda d: d.update(epoch_minutes="5")),
        "string-demand-scale": variant(lambda d: d.update(demand_scale="x")),
        "bool-pickup-patience": variant(lambda d: d.update(pickup_patience=True)),
        "numeric-name": variant(lambda d: d.update(name=5)),
        "zero-epoch-minutes": variant(lambda d: d.update(epoch_minutes=0)),
        "positive-reposition-reward": variant(entry("reposition_reward", 1.0)),
        "wrong-num-rates": variant(lambda d: d["dims"].update(num_rates=7)),
        "int64-overflowing-fleet": variant(lambda d: d["dims"].update(fleet_size=10**30)),
        "memory-exceeding-fleet": variant(lambda d: d["dims"].update(fleet_size=10**15)),
    }


def test_bad_config_exit_2(tmp_path):
    paths = {"directory": tmp_path}
    for name, content in _malformed_configs().items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_bytes(content)
    for name, bad in paths.items():
        r = run_cli("evaluate", "--config", str(bad), "--policy", "random",
                    "--trajectories", "1", "--days", "1", "--jobs", "1")
        assert r.returncode == 2, (name, r.stderr)
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, (name, r.stderr)


def test_unknown_scenario_exit_2():
    r = run_cli("bound", "--scenario", "nope")
    # argparse rejects the choice before our handler sees it
    assert r.returncode == 2


def test_train_then_evaluate_checkpoint(tiny_json, tmp_path):
    ckpt = tmp_path / "run"
    r = run_cli("train", "--config", tiny_json, "--out", str(ckpt),
                "--iterations", "1", "--trajectories", "2", "--days", "1",
                "--hidden", "6")
    assert r.returncode == 0, r.stderr
    assert (ckpt / "policy.bin").exists()
    assert (ckpt / "training_report.json").exists()
    out = tmp_path / "eval.json"
    r = run_cli("evaluate", "--config", tiny_json, "--policy", "ppo",
                "--checkpoint", str(ckpt / "policy.bin"),
                "--trajectories", "1", "--days", "1", "--jobs", "1",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    payload = json.loads(out.read_text())
    assert "mean_daily_reward" in payload


@pytest.mark.parametrize("policies", [
    ["power-of-2", "bogus"],
    ["random", "ppo"],
    ["fluid", "power-of-0"],
])
def test_compare_rejects_bad_policies_before_solving(tiny_json, monkeypatch, capsys,
                                                    policies):
    def no_solve(*args, **kwargs):
        raise AssertionError("bound solved before the policies were checked")

    monkeypatch.setattr(fluid, "upper_bound", no_solve)
    code = main(["compare", "--config", tiny_json, "--policies", *policies,
                 "--trajectories", "1", "--days", "1", "--jobs", "1"])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_compare_zero_demand_ratios_na(tmp_path):
    cfg = tmp_path / "zero.json"
    cfg.write_text(tiny_config(lam_scale=0.0).to_json())
    out = tmp_path / "cmp.json"
    r = run_cli("compare", "--config", str(cfg),
                "--policies", "random", "power-of-k:2",
                "--trajectories", "1", "--days", "1", "--jobs", "1",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert "n/a" in r.stdout
    payload = json.loads(out.read_text())
    assert payload["upper_bound"] == pytest.approx(0.0, abs=1e-9)


def test_compare_table_columns(tiny_json, tmp_path):
    out = tmp_path / "cmp.json"
    csvp = tmp_path / "cmp.csv"
    r = run_cli("compare", "--config", tiny_json,
                "--policies", "random",
                "--trajectories", "1", "--days", "2", "--jobs", "1",
                "--out", str(out), "--csv", str(csvp))
    assert r.returncode == 0, r.stderr
    header = csvp.read_text().splitlines()[0]
    assert header.split(",")[:3] == ["policy", "avg_daily_reward", "ratio_to_bound"]
    for col in ("policy", "avg_daily_reward", "ratio_to_bound"):
        assert col in r.stdout


@pytest.fixture(scope="module")
def trips(tmp_path_factory):
    """A directory with a two-row trip CSV, r.csv, and its zone map, map.csv."""
    d = tmp_path_factory.mktemp("trips")
    (d / "r.csv").write_text(
        "pickup_zone,dropoff_zone,pickup_timestamp,base_fare,duration_min,distance_miles\n"
        "A,B,2024-01-01T08:05:00,12.0,9.0,2.0\n"
        "B,A,2024-01-01T17:35:00,11.0,8.0,2.0\n")
    (d / "map.csv").write_text("zone,region\nA,0\nB,1\n")
    (d / "negmap.csv").write_text("zone,region\nA,0\nB,-1\n")
    return d


def test_calibrate_roundtrip(tmp_path, trips):
    out = tmp_path / "cfg.json"
    r = run_cli("calibrate", "--records", str(trips / "r.csv"), "--regions",
                str(trips / "map.csv"), "--epoch-min", "5", "--fleet", "4", "--out", str(out))
    assert r.returncode == 0, r.stderr
    from fleetlab.config import NetworkConfig

    cfg = NetworkConfig.from_json(out.read_text())
    assert cfg.horizon_steps == 288
    assert cfg.arrival_rate.sum() > 0


def test_calibrate_scale_fleet(tmp_path, trips):
    """--scale-fleet N sets the fleet to N and scales demand by N over the
    reference fleet, here 2 from two overlapping A->B trips."""
    records = tmp_path / "r.csv"
    records.write_text((trips / "r.csv").read_text() + "A,B,2024-01-01T08:07:00,10.0,9.0,2.0\n")
    ref = estimate_reference_fleet(read_trip_records(records))
    assert ref == 2
    base, scaled = tmp_path / "base.json", tmp_path / "scaled.json"
    args = ["calibrate", "--records", str(records), "--regions", str(trips / "map.csv"),
            "--fleet", "40"]
    r = run_cli(*args, "--out", str(base))
    assert r.returncode == 0, r.stderr
    r = run_cli(*args, "--scale-fleet", "3", "--out", str(scaled))
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[0] == "reference fleet estimate: 2; demand scaled by 1.5"
    cfg0 = NetworkConfig.from_json(base.read_text())
    cfg = NetworkConfig.from_json(scaled.read_text())
    assert cfg0.fleet_size == 40 and cfg0.demand_scale is None
    assert cfg.fleet_size == 3
    assert cfg.demand_scale == 3 / ref
    assert cfg.arrival_rate.sum() > 0
    np.testing.assert_array_equal(cfg.arrival_rate, cfg0.arrival_rate * (3 / ref))


def _week_of_trips() -> str:
    """400 trips over 5 zones in 3 regions, Monday 2024-01-01 onward. 390
    sequential 10-minute trips never overlap. Tuesday holds 4 overlapping
    trips between regions plus one within region 1; Saturday holds 5
    overlapping trips between regions."""
    zones = ["Z0", "Z1", "Z2", "Z3", "Z4"]
    rows = []

    def trip(start_min, dur, a, b):
        stamp = (datetime(2024, 1, 1) + timedelta(minutes=start_min)).isoformat()
        rows.append(f"{a},{b},{stamp},10.0,{dur},2.0")

    for i in range(390):
        trip(30 * i, 10, zones[i % 5], zones[(i + 2) % 5])
    tuesday, saturday = 24 * 60 + 615, 5 * 24 * 60 + 615     # in gaps of the sequence
    for k in range(4):
        trip(tuesday + k, 10, "Z0", "Z4")
    trip(tuesday + 4, 10, "Z2", "Z3")
    for k in range(5):
        trip(saturday + k, 10, "Z1", "Z4")
    assert len(rows) == 400
    return ("pickup_zone,dropoff_zone,pickup_timestamp,base_fare,duration_min,"
            "distance_miles\n" + "\n".join(rows) + "\n")


def test_calibrate_reference_fleet_counts_only_kept_trips(tmp_path):
    """The reference fleet is the peak of the trips the rates come from:
    weekend and intra-region trips do not count."""
    records, regions = tmp_path / "week.csv", tmp_path / "map.csv"
    records.write_text(_week_of_trips())
    regions.write_text("zone,region\nZ0,0\nZ1,0\nZ2,1\nZ3,1\nZ4,2\n")
    assert estimate_reference_fleet(read_trip_records(records)) == 5
    r = run_cli("calibrate", "--records", str(records), "--regions", str(regions),
                "--fleet", "40", "--scale-fleet", "8", "--out", str(tmp_path / "cfg.json"))
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[0] == "reference fleet estimate: 4; demand scaled by 2"


def test_calibrate_missing_column_exit_2(tmp_path):
    records = tmp_path / "r.csv"
    records.write_text("pickup_zone,dropoff_zone\nA,B\n")
    regions = tmp_path / "map.csv"
    regions.write_text("zone,region\nA,0\nB,1\n")
    r = run_cli("calibrate", "--records", str(records), "--regions", str(regions),
                "--out", str(tmp_path / "cfg.json"))
    assert r.returncode == 2
    assert "column" in r.stderr


def test_sweep_chargers_csv(tiny_json, tmp_path):
    csvp = tmp_path / "sweep.csv"
    r = run_cli("sweep-chargers", "--config", tiny_json,
                "--allocation", "1,1", "--train-iterations", "1",
                "--trajectories", "2", "--eval-trajectories", "1",
                "--days", "1", "--csv", str(csvp))
    assert r.returncode == 0, r.stderr
    lines = csvp.read_text().splitlines()
    assert len(lines) == 2  # header + one allocation
    assert "bound" in lines[0]


def test_sweep_hardware_two_pairs(tiny_json, tmp_path):
    csvp, out = tmp_path / "sweep.csv", tmp_path / "sweep.json"
    r = run_cli("sweep-hardware", "--config", tiny_json,
                "--pair", "1:3", "--pair", "2:4", "--train-iterations", "1",
                "--trajectories", "2", "--eval-trajectories", "1",
                "--days", "1", "--csv", str(csvp), "--out", str(out))
    assert r.returncode == 0, r.stderr
    lines = csvp.read_text().splitlines()
    assert lines[0].startswith("configuration,upper_bound")
    assert [line.split(",")[0] for line in lines[1:]] == ["1:3", "2:4"]
    points = json.loads(out.read_text())["points"]
    assert [p["label"] for p in points] == ["1:3", "2:4"]


SWEEP = ["sweep-chargers", "--config", "{cfg}", "--allocation", "1,1",
         "--train-iterations", "1", "--eval-trajectories", "1", "--days", "1"]
CALIBRATE = ["calibrate", "--records", "{trips}/r.csv", "--regions", "{trips}/map.csv",
             "--out", "{tmp}/cfg.json"]


@pytest.mark.parametrize("argv", [
    ["evaluate", "--config", "{cfg}", "--policy", "power-of-0"],
    ["compare", "--config", "{cfg}", "--policies", "power-of-0"],
    ["evaluate", "--config", "{cfg}", "--policy", "power-of-foo:3"],
    ["evaluate", "--config", "{cfg}", "--policy", "power-of-2:7:9"],
    ["evaluate", "--config", "{cfg}", "--policy", "random", "--trajectories", "0"],
    ["evaluate", "--config", "{cfg}", "--policy", "random", "--days", "0"],
    ["train", "--config", "{cfg}", "--out", "{tmp}", "--iterations", "0"],
    ["train", "--config", "{cfg}", "--out", "{tmp}", "--hidden", "0"],
    SWEEP + ["--eval-trajectories", "0"],
    SWEEP + ["--days", "0"],
    SWEEP + ["--k", "0"],
    SWEEP + ["--trajectories", "0"],
    SWEEP + ["--train-iterations", "0"],
    SWEEP + ["--train-iterations", "-1"],
    ["evaluate", "--config", "{cfg}", "--policy", "random", "--jobs", "-3"],
    ["compare", "--config", "{cfg}", "--policies", "random", "--jobs", "0"],
    CALIBRATE + ["--epoch-min", "0"],
    CALIBRATE + ["--epoch-min", "-5"],
    CALIBRATE + ["--epoch-min", "0.5"],
    CALIBRATE + ["--epoch-min", "1e-9"],
    CALIBRATE + ["--scale-fleet", "0"],
    CALIBRATE + ["--fleet", "0"],
    ["calibrate", "--records", "{trips}/r.csv", "--out", "{tmp}/cfg.json",
     "--regions", "{trips}/negmap.csv"],
    pytest.param(["--seed", "-1", "evaluate", "--config", "{cfg}", "--policy", "random"],
                 id="seed=-1-evaluate"),
    pytest.param(["--seed", "-1", "bound", "--config", "{cfg}"], id="seed=-1-bound"),
    ["bound", "--config", "{cfg}", "--formulation", "auto"],
    pytest.param(["--seed", "-1", "train", "--config", "{cfg}", "--out", "{tmp}"],
                 id="seed=-1-train"),
    pytest.param(["FLEETLAB_SEED=-1", "evaluate", "--config", "{cfg}", "--policy", "random"],
                 id="FLEETLAB_SEED=-1-evaluate"),
    pytest.param(SWEEP[:3] + SWEEP[5:], id="sweep-chargers-without-allocation"),
    pytest.param(["sweep-hardware"] + SWEEP[1:3] + SWEEP[5:], id="sweep-hardware-without-pair"),
    pytest.param(["bound", "--scenario", "uniform", "--config", "{tmp}/missing.json"],
                 id="bound-scenario-and-config"),
    pytest.param(["evaluate", "--config", "{cfg}", "--scenario", "uniform", "--policy", "random"],
                 id="evaluate-config-and-scenario"),
], ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}")
def test_bad_count_inputs_exit_2(tiny_json, trips, tmp_path, argv):
    """Leading NAME=value words set environment variables, as in a shell."""
    env = dict(a.split("=", 1) for a in takewhile(lambda a: "=" in a, argv))
    r = run_cli(*(a.format(cfg=tiny_json, trips=trips, tmp=tmp_path) for a in argv[len(env):]),
                env_extra=env)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert len(r.stderr.strip().splitlines()) == 1, r.stderr


@pytest.mark.parametrize("argv", [
    ["bound", "--config", "{cfg}", "--out", "{tmp}"],
    ["bound", "--config", "{cfg}", "--mps", "{tmp}"],
    ["train", "--config", "{cfg}", "--out", "{cfg}", "--iterations", "1"],
    ["evaluate", "--config", "{cfg}", "--policy", "ppo", "--checkpoint", "{tmp}"],
    CALIBRATE[:2] + ["{tmp}"] + CALIBRATE[3:],
], ids=["bound-out-dir", "bound-mps-dir", "train-out-file", "evaluate-checkpoint-dir",
        "calibrate-records-dir"])
def test_os_errors_exit_2(tiny_json, trips, tmp_path, argv):
    """A path of the wrong kind, a directory where a file is read or written
    or a file where a directory is made, is a bad input."""
    r = run_cli(*(a.format(cfg=tiny_json, trips=trips, tmp=tmp_path) for a in argv))
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), r.stderr


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """A policy fitting tiny_json, and checkpoints that must not load as one."""
    d = tmp_path_factory.mktemp("ckpt")
    pset, vset = ppo.init_networks(tiny_config(lam_scale=0.8), ppo.PpoConfig(hidden=4))
    other, _ = ppo.init_networks(tiny_config(V=3), ppo.PpoConfig(hidden=4))
    longer, _ = ppo.init_networks(tiny_config(T=5), ppo.PpoConfig(hidden=4))
    for name, mset in (("policy", pset), ("value", vset), ("other", other),
                       ("longer", longer)):
        nn.save_set(d / f"{name}.bin", mset)
    good = (d / "policy.bin").read_bytes()
    (d / "truncated.bin").write_bytes(good[:-7])
    (d / "header-only.bin").write_bytes(good[:20])
    # header words after the magic: version, kind, shared, horizon, net count,
    # layer count, then the layer sizes
    for name, word, value in (("version", 0, 2), ("kind", 1, 7), ("shared", 2, 1),
                              ("net-count", 4, 5), ("layer-count", 5, 4),
                              ("layer-size", 7, 0)):
        bad = bytearray(good)
        bad[4 + 4 * word:8 + 4 * word] = value.to_bytes(4, "little")
        (d / f"{name}.bin").write_bytes(bytes(bad))
    return d


def _evaluate_checkpoint(cfg, path):
    return run_cli("evaluate", "--config", cfg, "--policy", "ppo", "--checkpoint", str(path),
                   "--trajectories", "1", "--days", "1", "--jobs", "1")


def test_fitting_checkpoint_evaluates(tiny_json, checkpoints):
    r = _evaluate_checkpoint(tiny_json, checkpoints / "policy.bin")
    assert r.returncode == 0, r.stderr


# what each bad checkpoint's one-line error names after its path
BAD_CHECKPOINTS = {
    "truncated": "truncated checkpoint",
    "header-only": "truncated checkpoint",
    "kind": "unknown network kind 7",
    "shared": "(header shared=1) are not supported",
    "value": "a value network, not a policy",
    "other": "policy for horizon 4 with 46 inputs and 17 actions",
    "longer": "policy for horizon 5 with 33 inputs and 8 actions",
    "version": "unsupported checkpoint version 2",
    "net-count": "5 nets for horizon 4",
    "layer-count": "4 layer sizes for a policy network",
    "layer-size": "bad layer sizes [33, 0, 4, 4, 8]",
}


@pytest.mark.parametrize("name", list(BAD_CHECKPOINTS))
def test_bad_checkpoint_exits_2(tiny_json, checkpoints, name):
    r = _evaluate_checkpoint(tiny_json, checkpoints / f"{name}.bin")
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert len(r.stderr.strip().splitlines()) == 1, r.stderr
    assert BAD_CHECKPOINTS[name] in r.stderr


def test_readme_policy_tokens_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```\w*\n(.*?)```", readme, flags=re.S)
    tokens = []
    for line in "\n".join(blocks).replace("\\\n", " ").splitlines():
        words = line.split()
        for i, flag in enumerate(words):
            if flag in ("--policy", "--policies"):
                values = list(takewhile(lambda w: not w.startswith("-"), words[i + 1:]))
                tokens += values[:1] if flag == "--policy" else values
    assert tokens
    for token in tokens:
        parse_policy(token)
