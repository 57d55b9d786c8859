"""Tests for the clipped-surrogate trainer and its building blocks."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from fleetlab import nn, ppo, sim
from fleetlab.errors import ContractViolation, InvalidArgument, TrainingDiagnostic
from fleetlab.model import action_count, feasible_mask
from fleetlab.reduce import obs_dim, reduce_vector, vehicle_feature_dim, vehicle_features
from fleetlab.scenarios import synth_scenario
from fleetlab.sim import WorkingState, initial_state

from conftest import float64_copy, tiny_config
from oracles import AlwaysForwardPolicy, always_forward_update, central_difference


def test_clip_schedule_decays_geometrically_to_floor():
    assert ppo.clip_schedule(1, 0.1, 0.97, 0.01) == pytest.approx(0.097)
    assert ppo.clip_schedule(2, 0.1, 0.97, 0.01) == pytest.approx(0.1 * 0.97 ** 2)
    # far enough out the floor binds
    assert ppo.clip_schedule(500, 0.1, 0.97, 0.01) == 0.01
    assert ppo.clip_schedule(10, 0.2, 0.5, 0.05) == pytest.approx(0.05)


def test_default_config_values():
    p = ppo.PpoConfig()
    assert p.policy_iterations == 30
    assert p.initial_clip == 0.1
    assert p.clip_decay == 0.97
    assert p.lr_policy == 5e-4
    assert p.lr_value == 3e-4
    assert p.batch_policy == 1024
    assert p.batch_value == 1024
    assert p.policy_update_steps == 20
    assert p.value_update_steps == 100


def test_config_validation():
    for bad in (dict(trajectories_per_iter=0), dict(initial_clip=0.0),
                dict(days_per_trajectory=0), dict(batch_policy=0), dict(batch_value=0),
                dict(policy_update_steps=-1), dict(value_update_steps=-1), dict(hidden=0),
                dict(lr_policy=0.0), dict(lr_value=-1.0), dict(lr_value=float("nan")),
                dict(eval_days=0), dict(hidden=2.5), dict(batch_value=True),
                dict(trajectories_per_iter=np.float64(2.0)), dict(seed=-1),
                dict(early_stop_patience=0), dict(clip_floor=0.0), dict(clip_floor=1.5),
                dict(clip_floor=float("nan")), dict(clip_decay=True),
                dict(lr_policy=float("inf")), dict(lr_value="3e-4"), dict(eval_days="4")):
        field, = bad
        with pytest.raises(InvalidArgument, match=f"^{field} must be "):
            ppo.PpoConfig(**bad).validate()
        # train() validates before any work
        with pytest.raises(InvalidArgument, match=f"^{field} must be "):
            ppo.train(tiny_config(), ppo.PpoConfig(policy_iterations=1, **bad))
    ppo.PpoConfig(policy_update_steps=0, value_update_steps=0).validate()
    ppo.PpoConfig(policy_iterations=0, seed=np.int64(7), initial_clip=1, clip_floor=1.0,
                  early_stop_patience=1).validate()


def _collect(cfg, seed=0, days=2, hidden=8):
    pcfg = ppo.PpoConfig(seed=seed, hidden=hidden)
    pset, vset = ppo.init_networks(cfg, pcfg)
    trace = ppo.collect_trajectory(cfg, pset, days, np.random.default_rng(seed))
    return pset, vset, trace


def test_collect_trajectory_shapes(tiny):
    pset, vset, trace = _collect(tiny)
    L = len(trace)
    assert trace.x.shape == (L, obs_dim(tiny) + vehicle_feature_dim(tiny))
    assert trace.x.dtype == np.float32
    assert trace.obs.shape == (L, obs_dim(tiny)) and trace.obs.base is trace.x
    assert trace.mask.shape == (L, action_count(tiny))
    assert trace.old_prob.shape == (L,)
    assert (trace.old_prob > 0).all()
    assert trace.mask[np.arange(L), trace.action].all()
    # one atomic record per vehicle per epoch
    assert L == 2 * tiny.horizon_steps * tiny.fleet_size
    assert trace.terminal_t.tolist() == [0]
    assert trace.terminal_obs.shape == (1, obs_dim(tiny))


def test_collect_trajectory_rejects_a_log_shorter_than_the_records(tiny, monkeypatch):
    """The sampler's log and the simulator's records are matched by position;
    a log that lost a sample must not shift every later reward."""
    def lossy_run_days(config, policy, days, rng):
        traces = sim.run_days(config, policy, days, rng)
        policy.log.pop()
        return traces

    monkeypatch.setattr(ppo, "run_days", lossy_run_days)
    pset, _ = ppo.init_networks(tiny, ppo.PpoConfig(hidden=8))
    with pytest.raises(ContractViolation, match="logged samples"):
        ppo.collect_trajectory(tiny, pset, 1, np.random.default_rng(0))


def _always_forward(pset, record=False):
    """The reference sampler over ``pset``: the network runs on every step."""
    return AlwaysForwardPolicy(
        lambda config, work, vehicle: (reduce_vector(config, work),
                                       vehicle_features(config, vehicle)),
        lambda obs, veh, mask, t: nn.forward_policy(pset, obs, veh, mask, t), record)


@pytest.mark.parametrize("scenario", ["tiny", "two-region-commute"])
def test_rollouts_match_the_always_forward_reference(scenario, monkeypatch):
    """Forced steps skip the network yet draw the one uniform rng.choice
    would, so collected trajectories and evaluation scores are bit for bit
    those of a sampler that runs the network on every step."""
    cfg = tiny_config() if scenario == "tiny" else synth_scenario(scenario, seed=1)
    pset, _ = ppo.init_networks(cfg, ppo.PpoConfig(seed=1, hidden=8))
    got = ppo.collect_trajectory(cfg, pset, 2, np.random.default_rng(3))
    got_eval = ppo.evaluate_policy(cfg, ppo.NeuralPolicy(cfg, pset), 2, seed=5)
    want_eval = ppo.evaluate_policy(cfg, _always_forward(pset), 2, seed=5)
    monkeypatch.setattr(ppo, "NeuralPolicy",
                        lambda config, pset, record=False: _always_forward(pset, record))
    want = ppo.collect_trajectory(cfg, pset, 2, np.random.default_rng(3))
    forced = got.mask.sum(axis=1) == 1
    assert 0 < forced.sum() < len(got)          # both kinds of step occur
    for f in dataclasses.fields(ppo.EpisodeTrace):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert np.asarray(a).dtype == np.asarray(b).dtype, f.name
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name
    assert json.dumps(got_eval, sort_keys=True) == json.dumps(want_eval, sort_keys=True)


def test_a_forced_step_skips_the_network(tiny, monkeypatch):
    """A mask with one feasible entry returns that entry with probability 1
    after one uniform, without a forward, and featurises only to log."""
    calls = {"reduce_vector": 0, "forward_policy": 0}

    def counting(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(owner, name, wrapper)

    counting(ppo, "reduce_vector")
    counting(nn, "forward_policy")
    pset, _ = ppo.init_networks(tiny, ppo.PpoConfig(hidden=6))
    state = initial_state(tiny)
    work = WorkingState(state)
    vehicle = state.status_groups()[0][0]
    free = feasible_mask(tiny, work, vehicle)
    assert free.sum() > 1
    for at in (len(free) - 1, 2):               # Pass, or any lone entry
        forced = np.zeros_like(free)
        forced[at] = True
        for record in (False, True):
            policy = ppo.NeuralPolicy(tiny, pset, record)
            rng, twin = np.random.default_rng(4), np.random.default_rng(4)
            calls.update(reduce_vector=0, forward_policy=0)
            assert policy.act(tiny, work, vehicle, forced, rng) == at
            assert calls == {"reduce_vector": int(record), "forward_policy": 0}
            twin.random()
            assert rng.bit_generator.state == twin.bit_generator.state
            if record:
                (obs, veh, mask, t, idx, prob), = policy.log
                assert obs.tobytes() == reduce_vector(tiny, work).tobytes()
                assert veh.tobytes() == vehicle_features(tiny, vehicle).tobytes()
                assert (mask is forced, t, idx, prob) == (True, state.t, at, 1.0)
    calls.update(reduce_vector=0, forward_policy=0)
    ppo.NeuralPolicy(tiny, pset).act(tiny, work, vehicle, free, np.random.default_rng(4))
    assert calls == {"reduce_vector": 1, "forward_policy": 1}


@pytest.mark.parametrize("n, at", [(1, 0), (2, 1), (7, 0), (7, 3), (40, 39)])
def test_one_uniform_is_what_a_one_hot_choice_draws(n, at):
    """The numpy behaviour forced-step elision rests on: rng.choice(n, p)
    with a one-hot p returns the hot entry and advances the generator by
    exactly what one rng.random() does."""
    a, b = np.random.default_rng(17), np.random.default_rng(17)
    p = np.zeros(n)
    p[at] = 1.0
    for _ in range(5):
        a.random()
        assert b.choice(n, p=p) == at
        assert a.bit_generator.state == b.bit_generator.state
    assert a.random() == b.random()


def test_a_nan_weight_still_raises(tiny, monkeypatch):
    """Forced steps no longer reach the network, but the other steps do, so
    a non-finite policy still stops evaluation and training."""
    pcfg = ppo.PpoConfig(policy_iterations=1, trajectories_per_iter=1, days_per_trajectory=1,
                         hidden=6, eval_days=1, value_update_steps=1, policy_update_steps=1)
    pset, vset = ppo.init_networks(tiny, pcfg)
    pset.flat[0] = np.nan                       # one weight of the t = 0 net
    with pytest.raises(TrainingDiagnostic, match="non-finite network output"):
        ppo.evaluate_policy(tiny, ppo.NeuralPolicy(tiny, pset), 1, seed=0)
    monkeypatch.setattr(ppo, "init_networks", lambda config, ppo_config: (pset, vset))
    with pytest.raises(TrainingDiagnostic, match="non-finite network output"):
        ppo.train(tiny, pcfg)


def test_estimate_g_is_mean_daily_reward(tiny):
    _, _, trace = _collect(tiny, days=3)
    g = ppo.estimate_g(trace, 3)
    assert g == pytest.approx(math.fsum(trace.reward.tolist()) / 3)
    with pytest.raises(InvalidArgument, match=r"^need one or more traces .* lengths \[\]$"):
        ppo.EpisodeTrace.stack([])


def test_value_targets_are_bias_adjusted_tail_sums(tiny):
    _, _, trace = _collect(tiny, days=2)
    g = ppo.estimate_g(trace, 2)
    targets = ppo.value_targets(trace, g, tiny)
    bias = g / (tiny.horizon_steps * tiny.fleet_size)
    adj = trace.reward - bias
    # brute-force tail sums
    want = np.array([adj[i:].sum() for i in range(len(adj))])
    np.testing.assert_allclose(targets, want, atol=1e-9)
    # total bias removal: first target is total reward minus g * days
    assert targets[0] == pytest.approx(trace.reward.sum() - g * 2, abs=1e-9)


def test_advantages_use_next_observation(tiny):
    pset, vset, trace = _collect(tiny, days=2)
    g = ppo.estimate_g(trace, 2)
    adv = ppo.compute_advantages(trace, vset, g, tiny)
    bias = g / (tiny.horizon_steps * tiny.fleet_size)
    # check one interior step by hand
    i = 3
    h_i = vset.nets[trace.t[i]].forward(trace.obs[i])[0]
    h_n = vset.nets[trace.t[i + 1]].forward(trace.obs[i + 1])[0]
    assert adv[i] == pytest.approx(trace.reward[i] - bias + h_n - h_i)
    # the final step bootstraps on the terminal observation
    h_last = vset.nets[trace.t[-1]].forward(trace.obs[-1])[0]
    h_term = vset.nets[trace.terminal_t[0]].forward(trace.terminal_obs[0])[0]
    assert adv[-1] == pytest.approx(trace.reward[-1] - bias + h_term - h_last)


def test_stack_matches_single_trajectories_bit_for_bit(tiny):
    """estimate_g, value_targets and compute_advantages on a K-trajectory
    table give the bits of the same trajectories one table each: the mean
    of their reward fsums, and their targets and advantages end to end.
    Each trajectory's value forward stays its own, so its row count and
    the products' rounding do not depend on K."""
    days = 3
    pcfg = ppo.PpoConfig(seed=8)
    pset, vset = ppo.init_networks(tiny, pcfg)
    singles = [ppo.collect_trajectory(tiny, pset, days, np.random.default_rng([8, k]))
               for k in range(4)]
    table = ppo.EpisodeTrace.stack(singles)
    assert len(table) == 4 * days * tiny.horizon_steps * tiny.fleet_size
    assert table.terminal_t.shape == (4,) and table.terminal_obs.shape == (4, obs_dim(tiny))
    g = ppo.estimate_g(table, days)
    assert g == math.fsum(math.fsum(tr.reward.tolist()) for tr in singles) / (4 * days)
    for fn in (ppo.value_targets, lambda tr, g, cfg: ppo.compute_advantages(tr, vset, g, cfg)):
        want = np.concatenate([fn(tr, g, tiny) for tr in singles])
        assert fn(table, g, tiny).tobytes() == want.tobytes()
    with pytest.raises(InvalidArgument, match=r"^need one .* got lengths \[24, 8\]$"):
        ppo.EpisodeTrace.stack([singles[0], ppo.collect_trajectory(
            tiny, pset, 1, np.random.default_rng(0))])


def test_surrogate_terms_clip_only_above():
    old = np.array([0.5, 0.5, 0.5])
    new = np.array([0.9, 0.5, 0.1])       # rho = 1.8, 1.0, 0.2
    adv = np.array([1.0, 1.0, -1.0])
    terms, clipped = ppo.surrogate_terms(new / old, adv, eps=0.2)
    # rho=1.8, A>0: clipped at 1.2
    assert terms[0] == pytest.approx(1.2)
    assert clipped[0]
    # rho=1.0: untouched
    assert terms[1] == pytest.approx(1.0)
    assert not clipped[1]
    # rho=0.2, A<0: min picks the unclipped (more negative is not chosen;
    # min(0.2*-1, 0.8*-1) = -0.8)
    assert terms[2] == pytest.approx(-0.8)


def test_ppo_update_gradient_matches_finite_difference(tiny):
    """The analytic surrogate gradient inside ppo_update agrees with a
    central-difference probe of the clipped objective."""
    rng = np.random.default_rng(11)
    pcfg = ppo.PpoConfig(seed=1, hidden=6, policy_update_steps=1,
                         batch_policy=10 ** 9, lr_policy=0.0)
    pset, vset = ppo.init_networks(tiny, ppo.PpoConfig(seed=1, hidden=6))
    pset = float64_copy(pset)                   # probed in float64 below
    trace = ppo.collect_trajectory(tiny, pset, 1, np.random.default_rng(1))
    g = ppo.estimate_g(trace, 1)
    adv = ppo.compute_advantages(trace, vset, g, tiny)
    eps_m = 0.2

    def objective() -> float:
        terms = []
        for i in range(len(trace)):
            p = nn.masked_softmax(pset.nets[trace.t[i]].forward(trace.x[i]), trace.mask[i])
            term, _ = ppo.surrogate_terms(
                np.array([p[trace.action[i]] / trace.old_prob[i]]), np.array([adv[i]]), eps_m)
            terms.append(float(term[0]))
        return math.fsum(terms) / len(trace)

    # analytic gradient: run one update step with lr=0 and capture Adam's m
    # buffer (after one step m = 0.1 * grad of the *descent* objective)
    adam = nn.AdamState.for_set(pset)
    ppo.ppo_update(pset, adam, trace, adv, eps_m, pcfg, np.random.default_rng(0))
    params = [p for net in pset.nets for p in net.params()]
    checked = 0
    for p, m_buf in zip(params, [a for net in pset.views(adam.m) for a in net]):
        grad = -m_buf / 0.1  # ascent gradient
        flat, gflat = p.ravel(), grad.ravel()
        take = rng.choice(flat.size, size=min(4, flat.size), replace=False)
        for i in take:
            orig = flat[i]

            def f(val, flat=flat, i=i, orig=orig):
                flat[i] = val
                out = objective()
                flat[i] = orig
                return out

            num = central_difference(f, orig, h=1e-5)
            assert gflat[i] == pytest.approx(num, rel=2e-4, abs=1e-8), (
                f"param idx {i}")
            checked += 1
    assert checked >= 20


def test_ppo_update_drops_vanishing_old_probabilities(tiny):
    """Samples whose behaviour probability is at most 1e-12 leave the update
    and are counted: the step equals one over the trace without them."""
    pcfg = ppo.PpoConfig(seed=2, hidden=6, policy_update_steps=3)
    _, _, trace = _collect(tiny, seed=2, days=1, hidden=6)
    adv = np.linspace(-1.0, 1.0, len(trace))
    drop = np.zeros(len(trace), dtype=bool)
    drop[[0, 3, 7]] = True
    old_prob = trace.old_prob.copy()
    old_prob[[0, 3, 7]] = [1e-12, 1e-13, 0.0]
    tainted = dataclasses.replace(trace, old_prob=old_prob)
    keep = ~drop
    clean = dataclasses.replace(
        trace, x=trace.x[keep], mask=trace.mask[keep], t=trace.t[keep],
        action=trace.action[keep], old_prob=trace.old_prob[keep], reward=trace.reward[keep])
    results = []
    for tr, a in ((tainted, adv), (clean, adv[keep])):
        pset, _ = ppo.init_networks(tiny, pcfg)
        stats = ppo.ppo_update(pset, nn.AdamState.for_set(pset), tr, a, 0.2, pcfg,
                               np.random.default_rng(5))
        results.append((pset.flat, stats))
    (flat_t, stats_t), (flat_c, stats_c) = results
    assert stats_t.dropped == 3 and stats_c.dropped == 0
    assert stats_t.surrogate == stats_c.surrogate
    assert stats_t.clip_fraction == stats_c.clip_fraction
    np.testing.assert_array_equal(flat_t, flat_c)


def test_forced_rows_skip_the_network_in_the_update(tiny):
    """Rows with one feasible action, the one taken, leave the network pass
    of ppo_update, and the update still agrees with one that runs every row
    through it: Adam's first moment to float32 rounding (the grouped
    products round with their row counts), the clip fraction and the dropped
    count exactly, the surrogate to 1e-12. A forced row may have old_prob
    below 1 (rho above 1, so the clip can bind); a row whose one feasible
    action is not its logged action stays in the network pass."""
    pcfg = ppo.PpoConfig(seed=4, hidden=8, lr_policy=0.0, policy_update_steps=6,
                         batch_policy=60)
    _, _, trace = _collect(tiny, seed=4, days=12, hidden=8)
    rng = np.random.default_rng(21)
    n = len(trace)
    forced = trace.mask.sum(axis=1) == 1
    free = np.flatnonzero(~forced & (trace.action != trace.mask.shape[1] - 1))
    mask, old_prob = trace.mask.copy(), trace.old_prob * rng.uniform(0.8, 1.2, size=n)
    odd = free[0]                               # one feasible action, not the logged one
    mask[odd] = False
    mask[odd, -1] = True
    old_prob[free[1]] = 0.0                     # dropped
    tr = dataclasses.replace(trace, mask=mask, old_prob=old_prob)
    adv = rng.normal(size=n)
    adv[odd] = -1.0                             # rho = 0 with A < 0: the clip binds
    elided = forced & (old_prob > 0)
    assert elided.sum() > 10 and (old_prob[elided] != 1.0).all()

    pset, _ = ppo.init_networks(tiny, pcfg)
    seen = []
    grouped_gradient = pset.grouped_gradient

    def recording(x, t, rows, head):
        seen.append(rows)
        return grouped_gradient(x, t, rows, head)

    pset.grouped_gradient = recording
    adam = nn.AdamState.for_set(pset)
    stats = ppo.ppo_update(pset, adam, tr, adv, 0.2, pcfg, np.random.default_rng(6))
    ref_set, _ = ppo.init_networks(tiny, pcfg)
    ref_adam = nn.AdamState.for_set(ref_set)
    clip_fraction, surrogate, dropped = always_forward_update(
        ref_set, ref_adam, tr, adv, 0.2, pcfg, np.random.default_rng(6),
        ppo.surrogate_terms, nn.adam_step)

    rows = np.concatenate(seen)
    assert free[1] not in rows                  # the dropped row
    assert not elided[rows].any() and odd in rows
    assert (stats.clip_fraction, stats.dropped) == (clip_fraction, dropped)
    assert 0.0 < clip_fraction < 1.0 and dropped == 1
    assert stats.surrogate == pytest.approx(surrogate, rel=1e-12, abs=0.0)
    scale = np.abs(ref_adam.m).max()
    assert scale > 0
    np.testing.assert_allclose(adam.m, ref_adam.m, rtol=1e-5, atol=1e-6 * scale)


def test_surrogate_reports_the_minibatch_mean_at_zero_step_size(tiny):
    """With lr_policy 0 the policy never moves, so rho stays 1 up to float32
    rounding and each step's clipped surrogate is its minibatch's mean
    advantage; without steps the report is 0."""
    pcfg = ppo.PpoConfig(seed=3, hidden=6, lr_policy=0.0, policy_update_steps=5,
                         batch_policy=7)
    pset, _, trace = _collect(tiny, seed=3, days=1, hidden=6)
    adv = np.random.default_rng(9).normal(size=len(trace))
    stats = ppo.ppo_update(pset, nn.AdamState.for_set(pset), trace, adv, 0.2, pcfg,
                           np.random.default_rng(5))
    rng = np.random.default_rng(5)
    want = np.mean([adv[rng.choice(len(trace), size=7, replace=False)].mean()
                    for _ in range(5)])
    assert stats.dropped == 0
    assert abs(stats.surrogate - want) < 1e-9 + 1e-5 * np.abs(adv).mean()
    assert abs(want) > 1e-3                     # far from the normalised mean, 0
    idle = dataclasses.replace(pcfg, policy_update_steps=0)
    stats = ppo.ppo_update(pset, nn.AdamState.for_set(pset), trace, adv, 0.2, idle,
                           np.random.default_rng(5))
    assert stats.surrogate == 0.0 and stats.clip_fraction == 0.0


def test_fit_value_reduces_loss(tiny):
    pset, vset, trace = _collect(tiny, days=2)
    g = ppo.estimate_g(trace, 2)
    targets = ppo.value_targets(trace, g, tiny)
    pcfg = ppo.PpoConfig(hidden=8, value_update_steps=60, lr_value=3e-3,
                         batch_value=4096)
    losses = ppo.fit_value(vset, nn.AdamState.for_set(vset), trace.obs, trace.t, targets,
                           pcfg, np.random.default_rng(0))
    assert losses[-1] < losses[0]


def test_train_smoke_and_reports(tiny):
    pcfg = ppo.PpoConfig(policy_iterations=2, trajectories_per_iter=2,
                         days_per_trajectory=1, hidden=6, eval_days=1,
                         value_update_steps=5, policy_update_steps=2,
                         early_stop_patience=10, seed=3)
    lines = []
    result = ppo.train(tiny, pcfg, log=lines.append)
    assert len(result.reports) == 2
    assert not result.stopped_early
    assert len(lines) == 2
    for r in result.reports:
        assert math.isfinite(r.g_estimate)
        assert math.isfinite(r.eval_reward)
        assert 0.0 <= r.clip_fraction <= 1.0


def test_train_is_deterministic_for_same_seed(tiny):
    pcfg = ppo.PpoConfig(policy_iterations=1, trajectories_per_iter=2,
                         days_per_trajectory=1, hidden=6, eval_days=1,
                         value_update_steps=3, policy_update_steps=2, seed=4)
    r1 = ppo.train(tiny, pcfg)
    r2 = ppo.train(tiny, pcfg)
    assert r1.reports[0].g_estimate == r2.reports[0].g_estimate
    assert r1.reports[0].eval_reward == r2.reports[0].eval_reward
    for a, b in zip(r1.policy.nets[0].params(), r2.policy.nets[0].params()):
        np.testing.assert_array_equal(a, b)


def test_checkpoints_written(tmp_path, tiny):
    pcfg = ppo.PpoConfig(policy_iterations=1, trajectories_per_iter=1,
                         days_per_trajectory=1, hidden=6, eval_days=1,
                         value_update_steps=2, policy_update_steps=1, seed=5)
    ppo.train(tiny, pcfg, checkpoint_dir=str(tmp_path))
    d = tmp_path / "iter_1"
    assert (d / "policy.bin").exists()
    assert (d / "value.bin").exists()
    assert (d / "manifest.json").exists()
    back = nn.load_set(d / "policy.bin")
    assert back.kind == "policy"


def test_checkpoint_reproduces_trained_policy(tmp_path, tiny):
    """The policy train() leaves in memory and its save_set/load_set copy act
    with bit-identical probabilities."""
    pcfg = ppo.PpoConfig(policy_iterations=2, trajectories_per_iter=2,
                         days_per_trajectory=1, hidden=8, eval_days=1,
                         value_update_steps=3, policy_update_steps=3, seed=6)
    trained = ppo.train(tiny, pcfg).policy
    nn.save_set(tmp_path / "policy.bin", trained)
    loaded = nn.load_set(tmp_path / "policy.bin")
    a, b = (ppo.collect_trajectory(tiny, pset, 2, np.random.default_rng(8))
            for pset in (trained, loaded))
    assert a.old_prob.tobytes() == b.old_prob.tobytes()
    np.testing.assert_array_equal(a.action, b.action)


def test_training_keeps_every_buffer_float32(tiny, monkeypatch):
    """After train(), every buffer of both sets is float32: parameters,
    gradients, and Adam's moments and work rows. A buffer allocated or
    rebound in float64 anywhere in training would show here."""
    adam_step, states = nn.adam_step, {}

    def recording_adam_step(p, g, state, lr):
        adam_step(p, g, state, lr)
        states[id(state)] = state

    monkeypatch.setattr(nn, "adam_step", recording_adam_step)
    pcfg = ppo.PpoConfig(policy_iterations=2, trajectories_per_iter=2,
                         days_per_trajectory=1, hidden=6, eval_days=1,
                         value_update_steps=3, policy_update_steps=2, seed=2)
    result = ppo.train(tiny, pcfg)
    buffers = [b for mset in (result.policy, result.value) for b in (mset.flat, mset.grad)]
    buffers += [b for st in states.values() for b in (st.m, st.v, st._work)]
    assert len(states) == 2
    assert [b.dtype for b in buffers] == [np.float32] * 10


# SHA-256 of the IterationReports (sorted-key JSON) and of save_set's bytes for
# the policy and value sets after ppo.train on the tiny fixture. Re-recorded
# when training moved to float32 buffers (it was float64, rounded to float32
# only on save): the initial weights are rounded to float32 and every forward,
# backward and Adam step computes in float32, so all three digests moved,
# and the saved sets are now exactly the trained ones. Small batches leave some
# time-of-day nets without samples in some steps. The digests hold for float32
# numpy with OpenBLAS on x86-64, on 1 and 2 BLAS threads; another platform's
# BLAS or tanh may round differently. The reports' digest was re-recorded
# alone when `surrogate` became the mean clipped surrogate of the update's
# minibatches (it was the mean of the normalised advantages, rounding noise).
# The reports' and the policy's digests were re-recorded when ppo_update's
# forced rows left the network pass: its grouped products then have fewer
# rows and round differently in the last bits, so the policy weights and
# the reported surrogates move by float32 rounding; the value set held.
GOLDEN_TRAIN_DIGESTS = (
    "a7954947339735945e1ed3d94846843f7d4d640a19a80a32cf66686c33de8d43",
    "f404d9cf408b5275cfc51d4aacc65a098ad0c828cfd9aacf91602f3aa7bb1a18",
    "9fe9e9ca35eca9bf17da5e90804a579cf4e69966ffaa87aab5d18b69d3528927",
)


def test_train_output_is_bit_identical_to_recorded_digests(tiny, tmp_path):
    pcfg = ppo.PpoConfig(policy_iterations=3, trajectories_per_iter=3, days_per_trajectory=2,
                         hidden=8, eval_days=1, value_update_steps=6, policy_update_steps=4,
                         batch_value=16, batch_policy=6, early_stop_patience=10, seed=7)
    result = ppo.train(tiny, pcfg)
    reports = json.dumps([dataclasses.asdict(r) for r in result.reports], sort_keys=True)
    digests = [hashlib.sha256(reports.encode()).hexdigest()]
    for name, mset in (("policy", result.policy), ("value", result.value)):
        nn.save_set(tmp_path / f"{name}.bin", mset)
        digests.append(hashlib.sha256((tmp_path / f"{name}.bin").read_bytes()).hexdigest())
    assert tuple(digests) == GOLDEN_TRAIN_DIGESTS
