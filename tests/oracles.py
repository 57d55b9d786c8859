"""Independent reference implementations used to check the library.

Everything here is written for transparency over speed: exact rational
arithmetic, brute-force enumeration, and O(n^2) scans.  Nothing imports the
code under test; a reference that walks the library's own checked rule takes
it as an argument.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction

import numpy as np


# -- exact LP optimum by basic-solution enumeration ------------------------------


def _frac_solve(M, rhs):
    """Gaussian elimination over Fractions; returns None when singular."""
    n = len(rhs)
    A = [row[:] + [r] for row, r in zip(M, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            return None
        A[col], A[piv] = A[piv], A[col]
        inv = Fraction(1, 1) / A[col][col]
        A[col] = [v * inv for v in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [a - f * b for a, b in zip(A[r], A[col])]
    return [A[r][n] for r in range(n)]


def lp_optimum_exact(c, A, senses, b, maximize=True):
    """Optimal value of max/min c'x s.t. A x (senses) b, x >= 0 by enumerating
    all basic solutions of the slack-augmented equality system.  Returns None
    when no feasible basic solution exists (infeasible LP).  The caller must
    guarantee boundedness (e.g. by including a box constraint)."""
    c = [Fraction(v).limit_denominator(10**9) for v in c]
    b = [Fraction(v).limit_denominator(10**9) for v in b]
    A = [[Fraction(v).limit_denominator(10**9) for v in row] for row in A]
    m, n = len(A), len(c)
    # equality form: append one slack/surplus column per inequality row
    cols = [list(col) for col in zip(*A)]
    for i, s in enumerate(senses):
        if s == "<=":
            cols.append([Fraction(int(r == i)) for r in range(m)])
        elif s == ">=":
            cols.append([Fraction(-int(r == i)) for r in range(m)])
    total = len(cols)
    best = None
    for picks in itertools.combinations(range(total), m):
        M = [[cols[j][r] for j in picks] for r in range(m)]
        sol = _frac_solve(M, b)
        if sol is None or any(v < 0 for v in sol):
            continue
        x = [Fraction(0)] * total
        for j, v in zip(picks, sol):
            x[j] = v
        val = sum(ci * xi for ci, xi in zip(c, x[:n]))
        if best is None or (val > best if maximize else val < best):
            best = val
    return best


# -- brute-force overlap count for fleet-size estimation -------------------------


def max_concurrent_quadratic(intervals):
    """Maximum number of pairwise-overlapping intervals, O(n^2): evaluated at
    every interval start."""
    best = 0
    for s, _ in intervals:
        active = sum(1 for s2, e2 in intervals if s2 <= s < e2)
        best = max(best, active)
    return best


# -- finite differences -----------------------------------------------------------


def central_difference(f, x, h=1e-6):
    """Dense central-difference gradient of scalar f at x."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy(); xp.flat[i] += h
        xm = x.copy(); xm.flat[i] -= h
        g.flat[i] = (f(xp) - f(xm)) / (2 * h)
    return g


# -- charging curve integration ----------------------------------------------------


def curve_band_seconds(curve, lo_pct, hi_pct):
    """Seconds to charge from lo% to hi% by direct per-percent integration."""
    total = 0.0
    prev = 0.0
    for bound, sec_per_pct in curve:
        band_lo = max(prev, lo_pct)
        band_hi = min(bound, hi_pct)
        if band_hi > band_lo:
            total += (band_hi - band_lo) * sec_per_pct
        prev = bound
    return total


# -- per-vehicle epoch transition --------------------------------------------------


def _percent_after(curve, p0, seconds):
    """Percent reached after charging `seconds` from p0%, band by band."""
    p = min(max(p0, 0.0), 100.0)
    for hi, sec_per_pct in curve:
        if p >= hi:
            continue
        need = (hi - p) * sec_per_pct
        if seconds < need:
            return p + seconds / sec_per_pct
        seconds -= need
        p = hi
    return 100.0


def reference_transition(tables, state, assignments, arrivals):
    """Next state of one epoch, one unit at a time.

    ``tables`` maps names to plain values: ``T``, ``B``, ``L_c``, ``J``,
    ``trip_cap``, ``rates``, ``curve`` (None for linear charging),
    ``epoch_minutes`` and the arrays ``trip_duration``, ``battery_cost``,
    ``trip_reward``, ``reposition_reward``, ``charge_reward``. ``state`` is
    (t, vehicles, trips, chargers) as arrays; ``assignments`` lists one
    ((region, eta, battery), (kind, trip, region, rate)) per vehicle.
    Returns ((t', vehicles', trips', chargers'), counters), where counters
    holds the epoch's reward and its fulfilled, abandoned, arrived,
    repositioned and charges_started counts."""
    t, vehicles, trips, chargers = state
    V, Lc, J, B = vehicles.shape[0], tables["L_c"], tables["J"], tables["B"]
    rates = list(tables["rates"])
    dur, cost = tables["trip_duration"], tables["battery_cost"]
    count = {k: 0 for k in ("fulfilled", "abandoned", "arrived", "repositioned",
                            "charges_started")}
    rewards = []
    # one entry per queued order, as [origin, dest, age]
    orders = [[u, v, a] for (u, v, a), n in np.ndenumerate(trips) for _ in range(n)]
    # one entry per charger, as [region, rate index, epochs until free]
    units = [[v, r, k] for (v, r, k), n in np.ndenumerate(chargers) for _ in range(n)]
    landed = []
    assert sorted(c for c, _ in assignments) == sorted(
        c for c, n in np.ndenumerate(vehicles) for _ in range(n))
    for (u, eta, b), (kind, trip, region, rate) in assignments:
        if kind == "pass":
            landed.append((u, max(eta - 1, 0), b))
        elif kind in ("fulfill", "reposition"):
            v = trip[1] if kind == "fulfill" else region
            landed.append((v, eta + int(dur[u, v, t]) - 1, b - int(cost[u, v])))
            if kind == "fulfill":
                orders.remove(list(trip))
                rewards.append(float(tables["trip_reward"][u, v, t]))
                count["fulfilled"] += 1
            else:
                rewards.append(float(tables["reposition_reward"][u, v, t]))
                count["repositioned"] += 1
        else:                                       # charge
            r = rates.index(rate)
            unit = next(x for x in units if x[:2] == [u, r] and x[2] == 0)
            unit[2] = J                             # free again after J ticks
            if tables["curve"] is None:
                after = min(b + rate * J, B)
            else:
                pct = _percent_after(tables["curve"], 100.0 * b / B,
                                     J * tables["epoch_minutes"] * 60.0)
                after = min(max(math.floor(pct * B / 100.0 + 1e-9), b), B)
            landed.append((u, J - 1, after))
            rewards.append(float(tables["charge_reward"][r, t]))
            count["charges_started"] += 1

    nxt_vehicles = np.zeros_like(vehicles)
    for c in landed:
        nxt_vehicles[c] += 1
    nxt_trips = np.zeros_like(trips)
    for u, v, a in orders:
        if a == Lc:
            count["abandoned"] += 1
        else:
            nxt_trips[u, v, a + 1] += 1
    for u in range(V):
        for v in range(V):
            n = int(arrivals[u, v])
            count["arrived"] += n
            if u != v:
                nxt_trips[u, v, 0] = min(n, max(tables["trip_cap"] - int(nxt_trips[u, v].sum()), 0))
    nxt_chargers = np.zeros_like(chargers)
    for v, r, k in units:
        nxt_chargers[v, r, max(k - 1, 0)] += 1
    count["reward"] = math.fsum(rewards)
    return ((t + 1) % tables["T"], nxt_vehicles, nxt_trips, nxt_chargers), count


# -- reachable states, one at a time -------------------------------------------------


def arrival_outcomes(rates, cap):
    """Every arrival matrix of one epoch with ``rates`` (V, V) truncated at
    ``cap`` per pair: the pairs with a positive rate, in array order, take
    their counts 0..cap in itertools.product order; the other pairs stay 0."""
    pairs = [(u, v) for (u, v), rate in np.ndenumerate(rates) if rate > 0.0]
    outcomes = []
    for counts in itertools.product(range(cap + 1), repeat=len(pairs)):
        arrivals = np.zeros(rates.shape, dtype=np.int64)
        for (u, v), n in zip(pairs, counts):
            arrivals[u, v] = n
        outcomes.append(arrivals)
    return outcomes


def reference_discovery(start, rates, cap, fleet_actions, transition):
    """The states reachable from ``start`` by a first-in first-out
    breadth-first search that expands one state at a time: each state's
    fleet actions in the order ``fleet_actions(state)`` lists them, each
    action's arrival outcomes in arrival_outcomes' order, drawn at the rates
    ``rates[:, :, t + 1]`` of the epoch the next state enters (cyclically),
    and ``transition(state, action, arrivals)`` the next state. States have
    ``t`` and ``key()``, as SystemState does. Returns, per epoch t, the keys
    of its states in order of discovery."""
    T = rates.shape[2]
    outcomes = [arrival_outcomes(rates[:, :, (t + 1) % T], cap) for t in range(T)]
    layers = {t: [] for t in range(T)}
    seen = {start.key()}
    layers[start.t].append(start.key())
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for action in fleet_actions(state):
            for arrivals in outcomes[state.t]:
                nxt = transition(state, action, arrivals)
                if nxt.key() not in seen:
                    seen.add(nxt.key())
                    layers[nxt.t].append(nxt.key())
                    queue.append(nxt)
    return layers


# -- truncated arrivals -------------------------------------------------------------


def truncated_mean_rates(rates, cap):
    """The mean of each Poisson rate in ``rates`` once its count is truncated
    at ``cap``: the Poisson pmf over 0..cap, renormalised. Zero rates stay 0."""
    ks = np.arange(cap + 1)
    out = np.zeros_like(rates)
    it = np.nditer(rates, flags=["multi_index"])
    for lam in it:
        lam = float(lam)
        if lam > 0.0:
            pmf = np.array([lam ** k / math.factorial(k) * math.exp(-lam)
                            for k in ks])
            pmf /= pmf.sum()
            out[it.multi_index] = float(ks @ pmf)
    return out


def truncated_rollout(start, outcomes, decide, transition, rng, chains, warmup, days):
    """The mean daily reward of each of ``chains`` runs from ``start``, scored
    over ``days`` days after ``warmup`` unscored ones, a day being
    ``len(outcomes)`` epochs. Each epoch takes the fleet action
    ``decide(state, rng)``, then draws the arrivals by ``rng.choice`` from
    ``outcomes[state.t]``, an (arrival stack, probabilities) pair, and moves
    to the state ``transition(state, action, arrivals)`` returns with its
    reward."""
    means = []
    for _ in range(chains):
        state, total = start, 0.0
        for day in range(warmup + days):
            for _ in range(len(outcomes)):
                action = decide(state, rng)
                arrivals, probs = outcomes[state.t]
                pick = rng.choice(len(probs), p=probs)
                state, reward = transition(state, action, arrivals[pick])
                if day >= warmup:
                    total += reward
        means.append(total / days)
    return means


# -- the neural sampler, every step through the network ------------------------------


class AlwaysForwardPolicy:
    """A masked-softmax sampler that runs the network on every atomic step,
    a forced one (one feasible entry) too: ``featurise(config, work,
    vehicle)`` gives the (observation, vehicle features) pair, ``forward(obs,
    veh, mask, t)`` the action probabilities, and ``rng.choice`` draws the
    index. With ``record`` it logs (obs, veh, mask, t, index, probability)
    per step, as the library's sampler does."""

    def __init__(self, featurise, forward, record=False):
        self.featurise = featurise
        self.forward = forward
        self.record = record
        self.log = []

    def act(self, config, work, vehicle, mask, rng):
        obs, veh = self.featurise(config, work, vehicle)
        probs = self.forward(obs, veh, mask, work.t)
        idx = int(rng.choice(probs.size, p=probs))
        if self.record:
            self.log.append((obs, veh, mask, work.t, idx, float(probs[idx])))
        return idx


def always_forward_update(pset, adam, traces, advantages, eps_m, ppo, rng, surrogate_terms,
                          adam_step):
    """One clipped-surrogate update as the library's ppo_update does it, but
    with every kept row of every minibatch through the network, forced rows
    too: rows with old_prob <= 1e-12 are dropped, each of
    ``ppo.policy_update_steps`` minibatches of ``ppo.batch_policy`` rows is
    drawn by ``rng.choice`` without replacement, and ``adam_step(flat, grad,
    adam, lr)`` ascends the mean clipped surrogate that ``surrogate_terms(rho,
    adv, eps)`` gives per row. Returns (clip fraction, surrogate, dropped)."""
    obs = np.vstack([tr.obs for tr in traces])
    veh = np.vstack([tr.veh for tr in traces])
    mask = np.vstack([tr.mask for tr in traces])
    t = np.concatenate([tr.t for tr in traces])
    act = np.concatenate([tr.action for tr in traces])
    old_prob = np.concatenate([tr.old_prob for tr in traces])
    keep = old_prob > 1e-12
    obs, veh, mask, t, act = obs[keep], veh[keep], mask[keep], t[keep], act[keep]
    old_prob, advantages = old_prob[keep], advantages[keep]
    n = len(act)
    x = np.hstack([obs, veh], dtype=pset.flat.dtype)
    clip_fracs, surrogates = [], []
    for _ in range(ppo.policy_update_steps):
        idx = rng.choice(n, size=min(ppo.batch_policy, n), replace=False)
        sums = {"clipped": 0, "surrogate": 0.0}

        def head(sel, logits):
            m = mask[sel]
            z = np.where(m, logits.astype(np.float64), -np.inf)
            z = z - z.max(axis=1, keepdims=True)
            ez = np.where(m, np.exp(z), 0.0)
            p = ez / ez.sum(axis=1, keepdims=True)
            rho = p[np.arange(len(sel)), act[sel]] / old_prob[sel]
            adv = advantages[sel]
            terms, clipped = surrogate_terms(rho, adv, eps_m)
            sums["clipped"] += int(clipped.sum())
            sums["surrogate"] += float(terms.sum())
            coef = np.where(clipped, 0.0, adv * rho) / len(idx)
            dlogits = -coef[:, None] * p
            dlogits[np.arange(len(sel)), act[sel]] += coef
            return -dlogits

        grad = pset.grouped_gradient(x, t, idx, head)
        clip_fracs.append(sums["clipped"] / len(idx))
        surrogates.append(sums["surrogate"] / len(idx))
        adam_step(pset.flat, grad, adam, ppo.lr_policy)
    return (float(np.mean(clip_fracs)) if clip_fracs else 0.0,
            float(np.mean(surrogates)) if surrogates else 0.0, int((~keep).sum()))
