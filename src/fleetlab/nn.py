"""Small dense networks with hand-written exact backprop and Adam.

Both network families are 3 hidden layers plus a linear head; the policy uses
(tanh, tanh, tanh) hidden activations, the value function (tanh, relu, tanh).
One network per time-of-day step by default, with an option to share a single
time-conditioned network (time one-hot appended to the input).

Parameters are float64 in memory; checkpoints are self-describing binaries of
little-endian 32-bit floats behind an integer dimension header.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, InvalidArgument, TrainingDiagnostic

POLICY_ACTIVATIONS = ("tanh", "tanh", "tanh")
VALUE_ACTIVATIONS = ("tanh", "relu", "tanh")


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return np.tanh(z)
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "linear":
        return z
    raise InvalidArgument(f"unknown activation {name!r}")


def _act_grad(name: str, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return 1.0 - y * y
    if name == "relu":
        return (z > 0.0).astype(float)
    if name == "linear":
        return np.ones_like(z)
    raise InvalidArgument(f"unknown activation {name!r}")


class Mlp:
    """Dense feed-forward net; layers hold (W, b), activations per layer."""

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray],
                 activations: tuple[str, ...]):
        if len(weights) != len(biases) or len(weights) != len(activations):
            raise InvalidArgument("layer count mismatch")
        self.weights = weights
        self.biases = biases
        self.activations = tuple(activations)

    @classmethod
    def create(cls, dims: list[int], hidden_activations: tuple[str, ...],
               rng: np.random.Generator) -> "Mlp":
        """dims = [in, h1, h2, h3, out]; output layer is linear."""
        acts = tuple(hidden_activations) + ("linear",)
        if len(dims) != len(acts) + 1:
            raise InvalidArgument("dims/activations mismatch")
        ws, bs = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            ws.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            bs.append(np.zeros(fan_out))
        return cls(ws, bs, acts)

    @property
    def dims(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def param_count(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def params(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def forward(self, x: np.ndarray, want_cache: bool = False):
        """x: (d,) or (n, d). Returns output, and the cache if requested."""
        single = x.ndim == 1
        h = np.atleast_2d(np.asarray(x, dtype=float))
        cache = {"inputs": [], "pre": [], "post": []}
        for w, b, a in zip(self.weights, self.biases, self.activations):
            cache["inputs"].append(h)
            z = h @ w + b
            h = _act(a, z)
            cache["pre"].append(z)
            cache["post"].append(h)
        if not np.isfinite(h).all():
            raise TrainingDiagnostic("non-finite network output")
        out = h[0] if single else h
        return (out, cache) if want_cache else out

    def backward(self, cache: dict, dout: np.ndarray):
        """Exact reverse pass. dout: (n, out). Returns (grads, dinput);
        grads interleaves (dW, db) in the order of .params()."""
        d = np.atleast_2d(dout)
        grads: list[np.ndarray] = [None] * (2 * len(self.weights))
        for i in reversed(range(len(self.weights))):
            d = d * _act_grad(self.activations[i], cache["pre"][i], cache["post"][i])
            grads[2 * i] = cache["inputs"][i].T @ d
            grads[2 * i + 1] = d.sum(axis=0)
            d = d @ self.weights[i].T
        return grads, d


def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over unmasked entries; masked entries exactly 0."""
    if not mask.any():
        raise ContractViolation("feasibility mask is empty")
    probs = np.zeros_like(logits, dtype=float)
    z = logits[mask]
    z = np.exp(z - z.max())
    probs[mask] = z / z.sum()
    return probs


@dataclass
class MlpSet:
    """One net per time-of-day step, or a single shared time-conditioned net."""

    nets: list[Mlp]
    shared: bool
    horizon: int
    kind: str                       # "policy" | "value"

    def net_for(self, t: int) -> Mlp:
        return self.nets[0] if self.shared else self.nets[t]

    def augment(self, x: np.ndarray, t: int) -> np.ndarray:
        if not self.shared:
            return x
        onehot = np.zeros(self.horizon)
        onehot[t] = 1.0
        if x.ndim == 1:
            return np.concatenate([x, onehot])
        return np.hstack([x, np.tile(onehot, (x.shape[0], 1))])

    def param_count(self) -> int:
        return sum(net.param_count() for net in self.nets)


def create_policy_set(obs_dim: int, veh_dim: int, n_actions: int, horizon: int,
                      rng: np.random.Generator, hidden: int = 128,
                      shared: bool = False) -> MlpSet:
    din = obs_dim + veh_dim + (horizon if shared else 0)
    dims = [din, hidden, hidden, hidden, n_actions]
    count = 1 if shared else horizon
    return MlpSet([Mlp.create(dims, POLICY_ACTIVATIONS, rng) for _ in range(count)],
                  shared, horizon, "policy")


def create_value_set(obs_dim: int, horizon: int, rng: np.random.Generator,
                     hidden: int = 128, shared: bool = False) -> MlpSet:
    din = obs_dim + (horizon if shared else 0)
    dims = [din, hidden, hidden, hidden, 1]
    count = 1 if shared else horizon
    return MlpSet([Mlp.create(dims, VALUE_ACTIVATIONS, rng) for _ in range(count)],
                  shared, horizon, "value")


def forward_policy(pset: MlpSet, obs: np.ndarray, veh: np.ndarray, mask: np.ndarray,
                   t: int) -> np.ndarray:
    x = pset.augment(np.concatenate([obs, veh]), t)
    return masked_softmax(pset.net_for(t).forward(x), mask)


def forward_value(vset: MlpSet, obs: np.ndarray, t: int) -> float:
    x = vset.augment(np.asarray(obs, dtype=float), t)
    return float(vset.net_for(t).forward(x)[0])


# -- optimizer ----------------------------------------------------------------


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: list[np.ndarray], **kw) -> "AdamState":
        return cls([np.zeros_like(p) for p in params],
                   [np.zeros_like(p) for p in params], **kw)


def adam_step(params: list[np.ndarray], grads: list[np.ndarray],
              state: AdamState, lr: float) -> None:
    """Standard Adam with bias correction; updates params in place."""
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    corr1 = 1.0 - b1 ** state.step
    corr2 = 1.0 - b2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / corr1) / (np.sqrt(v / corr2) + state.eps)


# -- checkpoints ---------------------------------------------------------------

_MAGIC = b"FLNN"
_KINDS = {"policy": 0, "value": 1}
_KIND_NAMES = {v: k for k, v in _KINDS.items()}
_ACT_SETS = {"policy": POLICY_ACTIVATIONS, "value": VALUE_ACTIVATIONS}


def save_set(path, pset: MlpSet) -> None:
    """Self-describing binary: int32 header (kind, shared, horizon, net count,
    layer count, layer dims) then all parameters as little-endian float32."""
    dims = pset.nets[0].dims
    with open(path, "wb") as f:
        f.write(_MAGIC)
        header = [1, _KINDS[pset.kind], int(pset.shared), pset.horizon,
                  len(pset.nets), len(dims)] + dims
        f.write(np.asarray(header, dtype="<i4").tobytes())
        for net in pset.nets:
            for p in net.params():
                f.write(np.ascontiguousarray(p, dtype="<f4").tobytes())


def load_set(path) -> MlpSet:
    with open(path, "rb") as f:
        if f.read(4) != _MAGIC:
            raise InvalidArgument(f"{path}: not a network checkpoint")
        fixed = np.frombuffer(f.read(6 * 4), dtype="<i4")
        version, kind_id, shared, horizon, n_nets, n_dims = (int(x) for x in fixed)
        if version != 1:
            raise InvalidArgument(f"{path}: unsupported checkpoint version {version}")
        dims = [int(x) for x in np.frombuffer(f.read(n_dims * 4), dtype="<i4")]
        kind = _KIND_NAMES[kind_id]
        acts = _ACT_SETS[kind] + ("linear",)
        nets = []
        for _ in range(n_nets):
            ws, bs = [], []
            for fan_in, fan_out in zip(dims[:-1], dims[1:]):
                w = np.frombuffer(f.read(fan_in * fan_out * 4), dtype="<f4")
                ws.append(w.reshape(fan_in, fan_out).astype(float))
                bs.append(np.frombuffer(f.read(fan_out * 4), dtype="<f4").astype(float))
            nets.append(Mlp(ws, bs, acts))
        if f.read(1):
            raise InvalidArgument(f"{path}: trailing bytes in checkpoint")
    return MlpSet(nets, bool(shared), horizon, kind)
