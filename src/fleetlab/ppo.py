"""Policy training: atomic-action PPO for the average-reward dispatch MDP.

Each iteration collects K trajectories of D days under the frozen policy,
estimates the long-run average daily reward g, builds Monte-Carlo relative
value targets by a reverse pass of (r - g/(T*N)), fits the value networks by
minibatch Adam on squared error, forms advantages
A = r - g/(T*N) + h(next obs) - h(obs), and ascends the clipped surrogate
mean(min(rho*A, clip(rho, 1-eps, 1+eps)*A)) with a decaying clip radius
eps_m = max(eps * gamma^m, floor). Advantages are normalised to zero mean and
unit variance over each iteration's pooled samples (Schulman et al. 2017).

Both network sets hold one net per time-of-day step, and each keeps one Adam
state over its flat float32 parameter buffer across iterations. The pooled
observations are cast to the networks' dtype once per iteration; the loss
heads compute targets, ratios and advantages in float64.

A forced atomic step, whose mask leaves one action, has probability exactly 1
and policy gradient exactly 0, so neither the sampler nor the update runs the
network on it. The sampler still draws the one uniform that rng.choice would
have drawn, so the random stream, and with it every rollout, is unchanged.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from . import nn
from .config import NetworkConfig
from .errors import (ContractViolation, InvalidArgument, TrainingDiagnostic, require_int,
                     require_real)
from .model import action_count
from .reduce import obs_dim, reduce_vector, vehicle_feature_dim, vehicle_features
from .sim import run_days, score_trajectory, summarize_scores


#: PpoConfig's counts that may be 0; the other counts must be at least 1
_MAY_BE_ZERO = {"policy_iterations", "policy_update_steps", "value_update_steps", "seed"}
#: PpoConfig's reals that lie in (0, 1]; the learning rates need only be > 0
_FRACTIONS = {"initial_clip", "clip_decay", "clip_floor"}


@dataclass
class PpoConfig:
    policy_iterations: int = 30
    trajectories_per_iter: int = 30
    days_per_trajectory: int = 8
    initial_clip: float = 0.1
    clip_decay: float = 0.97
    clip_floor: float = 0.01
    lr_policy: float = 5e-4
    lr_value: float = 3e-4
    batch_policy: int = 1024
    batch_value: int = 1024
    policy_update_steps: int = 20
    value_update_steps: int = 100
    seed: int = 0
    hidden: int = 128
    eval_days: int = 4
    early_stop_patience: int = 3

    def validate(self) -> None:
        """Counts are integers, not bools; reals are finite and above 0."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                require_int(f.name, value, 0 if f.name in _MAY_BE_ZERO else 1)
            else:
                most = 1 if f.name in _FRACTIONS else math.inf
                require_real(f.name, value, 0, most, strict=True)


def clip_schedule(m: int, eps: float, gamma: float, floor: float) -> float:
    return max(eps * gamma ** m, floor)


class NeuralPolicy:
    """Samples atomic actions from masked-softmax network outputs.

    With record=True it logs each draw in call order: the network's inputs
    (observation, vehicle features, mask, time of day), the action index and
    its probability, so the trainer rebuilds ratios under identical inputs.
    The log keeps the mask it is handed, which run_epoch makes read-only.

    A forced step, whose mask has one feasible entry, skips the network: the
    masked softmax would give that entry probability exactly 1, and
    ``rng.choice(n, p=one_hot)`` would return it after drawing exactly one
    uniform, so the step draws that one uniform with ``rng.random()`` and
    takes the entry. Every later draw, and so the whole rollout, is as if
    the network had run. A forced step featurises only to fill the log.
    """

    def __init__(self, config: NetworkConfig, pset: nn.MlpSet, record: bool = False):
        self.pset = pset
        self.record = record
        self.log: list[tuple[np.ndarray, np.ndarray, np.ndarray, int, int, float]] = []

    def act(self, config, work, vehicle, mask, rng):
        forced = np.count_nonzero(mask) == 1
        if self.record or not forced:
            obs = reduce_vector(config, work)
            veh = vehicle_features(config, vehicle)
        if forced:
            rng.random()
            idx, prob = int(mask.argmax()), 1.0
        else:
            probs = nn.forward_policy(self.pset, obs, veh, mask, work.t)
            idx = int(rng.choice(probs.size, p=probs))
            prob = float(probs[idx])
        if self.record:
            self.log.append((obs, veh, mask, work.t, idx, prob))
        return idx


@dataclass
class EpisodeTrace:
    """Flat per-atomic-step arrays for one K-trajectory member."""

    obs: np.ndarray          # (L, obs_dim)
    veh: np.ndarray          # (L, veh_dim)
    mask: np.ndarray         # (L, n_actions) bool
    t: np.ndarray            # (L,) time of day
    action: np.ndarray       # (L,) atomic action index
    old_prob: np.ndarray     # (L,)
    reward: np.ndarray       # (L,)
    terminal_obs: np.ndarray
    terminal_t: int

    def __len__(self) -> int:
        return self.action.size


def collect_trajectory(config: NetworkConfig, pset: nn.MlpSet, days: int,
                       rng: np.random.Generator) -> EpisodeTrace:
    """One trajectory's logged samples, each with its atomic step's reward."""
    policy = NeuralPolicy(config, pset, record=True)
    day_traces = run_days(config, policy, days, rng)
    rew = [rec.reward for tr in day_traces for ep in tr.epochs for rec in ep.records]
    if len(rew) != len(policy.log):
        raise ContractViolation(f"{len(policy.log)} logged samples for {len(rew)} atomic steps")
    obs, veh, mask, t, act, prob = zip(*policy.log)
    final = day_traces[-1].states[-1]
    return EpisodeTrace(
        obs=np.asarray(obs),
        veh=np.asarray(veh),
        mask=np.asarray(mask, dtype=bool),
        t=np.asarray(t, dtype=np.int64),
        action=np.asarray(act, dtype=np.int64),
        old_prob=np.asarray(prob),
        reward=np.asarray(rew),
        terminal_obs=reduce_vector(config, final),
        terminal_t=final.t,
    )


def estimate_g(traces: list[EpisodeTrace], days: int) -> float:
    if not traces:
        raise InvalidArgument("no traces")
    total = math.fsum(math.fsum(tr.reward.tolist()) for tr in traces)
    return total / (len(traces) * days)


def value_targets(trace: EpisodeTrace, g: float, config: NetworkConfig) -> np.ndarray:
    """Tail sums of (r - g/(T*N)), one reverse pass."""
    bias = g / (config.horizon_steps * config.fleet_size)
    adj = trace.reward - bias
    return adj[::-1].cumsum()[::-1]


def fit_value(vset: nn.MlpSet, adam: nn.AdamState, obs: np.ndarray, t: np.ndarray,
              targets: np.ndarray, ppo: PpoConfig, rng: np.random.Generator) -> list[float]:
    """Minibatch Adam on mean squared error; returns losses per step. Given
    ``obs`` in the networks' dtype (``train`` casts it once), no step casts
    its minibatch; the errors are float64 like ``targets``."""
    losses = []
    n = len(targets)
    for _ in range(ppo.value_update_steps):
        idx = rng.choice(n, size=min(ppo.batch_value, n), replace=False)
        loss_terms = []

        def head(sel, y):
            err = y[:, 0] - targets[sel]
            loss_terms.append(float(err @ err))
            return (2.0 * err / len(idx))[:, None]

        grad = vset.grouped_gradient(obs, t, idx, head)
        loss = math.fsum(loss_terms) / len(idx)
        if not math.isfinite(loss):
            raise TrainingDiagnostic("value loss diverged (NaN/inf)")
        losses.append(loss)
        nn.adam_step(vset.flat, grad, adam, ppo.lr_value)
    return losses


def compute_advantages(trace: EpisodeTrace, vset: nn.MlpSet, g: float,
                       config: NetworkConfig) -> np.ndarray:
    """A = r - g/(T*N) + h(next obs) - h(obs); the final step bootstraps on
    the trajectory's terminal observation."""
    bias = g / (config.horizon_steps * config.fleet_size)
    h = vset.forward_grouped(trace.obs, trace.t)[:, 0]
    h_term = vset.nets[trace.terminal_t].forward(trace.terminal_obs)[0]
    h_next = np.append(h[1:], h_term)
    return trace.reward - bias + h_next - h


def surrogate_terms(rho: np.ndarray, adv: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample min(rho*A, clip(rho)*A) and whether the clip bound binds."""
    t1 = rho * adv
    t2 = np.clip(rho, 1.0 - eps, 1.0 + eps) * adv
    return np.minimum(t1, t2), t2 < t1


@dataclass
class PolicyUpdateStats:
    clip_fraction: float
    surrogate: float            # mean over steps of the minibatch's mean clipped surrogate
    dropped: int


def ppo_update(pset: nn.MlpSet, adam: nn.AdamState, traces: list[EpisodeTrace],
               advantages: np.ndarray, eps_m: float, ppo: PpoConfig,
               rng: np.random.Generator) -> PolicyUpdateStats:
    """Clipped-surrogate ascent over the pooled atomic dataset.

    A forced row, whose logged mask has one feasible entry and whose logged
    action is that entry, has probability exactly 1 under any network, so
    its d(surrogate)/d(logits) is exactly 0. It skips the network: it counts
    in its minibatch's size, and its surrogate term and clip flag are those
    of rho = 1 / old_prob, as the network pass would give. Only the rows
    left go through ``grouped_gradient``."""
    obs = np.vstack([tr.obs for tr in traces])
    veh = np.vstack([tr.veh for tr in traces])
    mask = np.vstack([tr.mask for tr in traces])
    t = np.concatenate([tr.t for tr in traces])
    act = np.concatenate([tr.action for tr in traces])
    old_prob = np.concatenate([tr.old_prob for tr in traces])

    keep = old_prob > 1e-12
    dropped = int((~keep).sum())
    if dropped:
        obs, veh, mask, t, act = obs[keep], veh[keep], mask[keep], t[keep], act[keep]
        old_prob, advantages = old_prob[keep], advantages[keep]

    n = len(act)
    xfull = np.hstack([obs, veh], dtype=pset.flat.dtype)
    forced = (mask.sum(axis=1) == 1) & mask[np.arange(n), act]
    clip_fracs, surrogates = [], []
    for _ in range(ppo.policy_update_steps):
        idx = rng.choice(n, size=min(ppo.batch_policy, n), replace=False)
        skip = forced[idx]
        terms, clipped = surrogate_terms(1.0 / old_prob[idx[skip]], advantages[idx[skip]], eps_m)
        clipped_ct = int(clipped.sum())
        surrogate_sum = float(terms.sum())

        def head(sel, logits):
            nonlocal clipped_ct, surrogate_sum
            m = mask[sel]
            # float64, as masked_softmax computed old_prob, but not its bits: the
            # row sums add in another order, and the rollout's one-row forward
            # rounds unlike this batched one, so rho at the first step is ~1
            z = np.where(m, logits.astype(np.float64), -np.inf)
            z = z - z.max(axis=1, keepdims=True)
            ez = np.where(m, np.exp(z), 0.0)
            p = ez / ez.sum(axis=1, keepdims=True)
            pa = p[np.arange(len(sel)), act[sel]]
            rho = pa / old_prob[sel]
            adv = advantages[sel]
            terms, clipped = surrogate_terms(rho, adv, eps_m)
            clipped_ct += int(clipped.sum())
            surrogate_sum += float(terms.sum())
            # d/dlogits of mean surrogate; zero where the clip bound binds
            coef = np.where(clipped, 0.0, adv * rho) / len(idx)
            dlogits = -coef[:, None] * p
            dlogits[np.arange(len(sel)), act[sel]] += coef
            return -dlogits                     # ascend: negate for Adam

        grad = pset.grouped_gradient(xfull, t, idx[~skip], head)
        clip_fracs.append(clipped_ct / len(idx))
        surrogates.append(surrogate_sum / len(idx))
        nn.adam_step(pset.flat, grad, adam, ppo.lr_policy)
    return PolicyUpdateStats(
        clip_fraction=float(np.mean(clip_fracs)) if clip_fracs else 0.0,
        surrogate=float(np.mean(surrogates)) if surrogates else 0.0,
        dropped=dropped,
    )


# -- evaluation and the outer loop ---------------------------------------------


def evaluate_policy(config: NetworkConfig, policy, days: int, seed: int) -> dict:
    """Mean daily reward and service metrics over one evaluation rollout,
    seeded ``[seed, 0]``, scored over the ``days`` after one warm-up day."""
    score = score_trajectory(config, policy, days, (seed, 0), warmup_days=1)
    return {**score, **summarize_scores([score])}


@dataclass
class IterationReport:
    iteration: int
    g_estimate: float
    value_losses: list[float]
    surrogate: float
    clip_fraction: float
    clip_eps: float
    eval_reward: float
    dropped_samples: int


@dataclass
class TrainResult:
    policy: nn.MlpSet
    value: nn.MlpSet
    reports: list[IterationReport]
    stopped_early: bool


def _write_checkpoint(directory: str, m: int, pset: nn.MlpSet, vset: nn.MlpSet,
                      config: NetworkConfig, report: IterationReport) -> None:
    d = os.path.join(directory, f"iter_{m}")
    os.makedirs(d, exist_ok=True)
    nn.save_set(os.path.join(d, "policy.bin"), pset)
    nn.save_set(os.path.join(d, "value.bin"), vset)
    manifest = {
        "iteration": m,
        "config_digest": config.digest(),
        "g_estimate": report.g_estimate,
        "eval_reward": report.eval_reward,
        "policy_params": pset.flat.size,
        "value_params": vset.flat.size,
    }
    with open(os.path.join(d, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
        f.write("\n")


def init_networks(config: NetworkConfig, ppo: PpoConfig) -> tuple[nn.MlpSet, nn.MlpSet]:
    rng = np.random.default_rng([ppo.seed, 1])
    pset = nn.create_policy_set(obs_dim(config), vehicle_feature_dim(config),
                                action_count(config), config.horizon_steps, rng,
                                hidden=ppo.hidden)
    vset = nn.create_value_set(obs_dim(config), config.horizon_steps, rng, hidden=ppo.hidden)
    return pset, vset


def train(config: NetworkConfig, ppo: PpoConfig,
          checkpoint_dir: str | None = None, log=None) -> TrainResult:
    """Full training loop; returns the final policy and per-iteration reports."""
    ppo.validate()
    pset, vset = init_networks(config, ppo)
    value_adam, policy_adam = nn.AdamState.for_set(vset), nn.AdamState.for_set(pset)
    reports: list[IterationReport] = []
    best = -math.inf
    stale = 0
    stopped = False
    for m in range(1, ppo.policy_iterations + 1):
        traces = [
            collect_trajectory(config, pset, ppo.days_per_trajectory,
                               np.random.default_rng([ppo.seed, 2, m, k]))
            for k in range(ppo.trajectories_per_iter)
        ]
        g = estimate_g(traces, ppo.days_per_trajectory)
        targets = np.concatenate([value_targets(tr, g, config) for tr in traces])
        all_obs = np.vstack([tr.obs for tr in traces], dtype=vset.flat.dtype)
        all_t = np.concatenate([tr.t for tr in traces])
        losses = fit_value(vset, value_adam, all_obs, all_t, targets, ppo,
                           np.random.default_rng([ppo.seed, 3, m]))
        adv = np.concatenate([compute_advantages(tr, vset, g, config) for tr in traces])
        if adv.std() > 0:
            adv = (adv - adv.mean()) / adv.std()
        eps_m = clip_schedule(m, ppo.initial_clip, ppo.clip_decay, ppo.clip_floor)
        stats = ppo_update(pset, policy_adam, traces, adv, eps_m, ppo,
                           np.random.default_rng([ppo.seed, 4, m]))
        ev = evaluate_policy(config, NeuralPolicy(config, pset), ppo.eval_days,
                             seed=ppo.seed + 1000 + m)
        report = IterationReport(
            iteration=m, g_estimate=g, value_losses=losses,
            surrogate=stats.surrogate, clip_fraction=stats.clip_fraction,
            clip_eps=eps_m, eval_reward=ev["mean_daily_reward"],
            dropped_samples=stats.dropped)
        reports.append(report)
        if log is not None:
            log(json.dumps({"iteration": m, "g": g, "eval_reward": report.eval_reward,
                            "clip_fraction": report.clip_fraction}, sort_keys=True))
        if checkpoint_dir:
            _write_checkpoint(checkpoint_dir, m, pset, vset, config, report)
        if report.eval_reward > best + 1e-9:
            best = report.eval_reward
            stale = 0
        else:
            stale += 1
            if stale >= ppo.early_stop_patience:
                stopped = True
                break
    return TrainResult(pset, vset, reports, stopped)
