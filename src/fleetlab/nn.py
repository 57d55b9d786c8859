"""Small dense networks with hand-written exact backprop and Adam.

Both network families are 3 hidden layers plus a linear head; the policy uses
(tanh, tanh, tanh) hidden activations, the value function (tanh, relu, tanh).
A set holds one network per time-of-day step: ``nets[t]`` serves time t.

All parameters of an ``MlpSet`` live in one contiguous float32 buffer,
``flat``, net after net, each net as (W0, b0, W1, b1, ...): the order of
``Mlp.params()`` and of the checkpoint file. Each net's weights and biases
are views into it. A training step runs one grouped forward/backward
(``MlpSet.grouped_gradient``): each time-of-day group of the minibatch goes
through its net, and the reverse pass writes straight into that net's slice
of the set's flat gradient buffer. One ``adam_step`` then updates the whole
buffer in cache-sized chunks, with Adam's moments in two flat buffers laid
out like it. Activations and their derivatives are computed in place; the
gradient buffer is allocated on first use.

The library builds and loads sets only in float32, the precision of the
checkpoint, so a checkpoint holds exactly the weights that were trained and
reproduces the trained policy bit for bit. The code itself follows the
buffer's dtype: ``Mlp.forward`` and ``backward`` cast their input and
d(loss)/d(out) to it once, gradients and Adam's moments take the
parameters' dtype, and a net built over a float64 buffer (as the
finite-difference tests do) computes in float64. ``masked_softmax`` returns
float64 probabilities, whatever the logits' dtype.

Checkpoints are self-describing binaries of little-endian 32-bit floats
behind an integer dimension header. The header keeps a ``shared`` slot from
an earlier time-conditioned layout; it is always written 0, and a file with
any other value there is rejected.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ContractViolation, InvalidArgument, TrainingDiagnostic

POLICY_ACTIVATIONS = ("tanh", "tanh", "tanh")
VALUE_ACTIVATIONS = ("tanh", "relu", "tanh")


def _activate(name: str, z: np.ndarray) -> None:
    """Apply the activation to z in place."""
    if name == "tanh":
        np.tanh(z, out=z)
    elif name == "relu":
        np.maximum(z, 0.0, out=z)


def param_count(dims: list[int]) -> int:
    """Number of parameters of a net with layer sizes ``dims``."""
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))


def split_params(flat: np.ndarray, dims: list[int]) -> list[np.ndarray]:
    """Views of ``flat`` as (W0, b0, W1, b1, ...) for layer sizes ``dims``."""
    out, o = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        out.append(flat[o:o + fan_in * fan_out].reshape(fan_in, fan_out))
        o += fan_in * fan_out
        out.append(flat[o:o + fan_out])
        o += fan_out
    return out


class Mlp:
    """Dense feed-forward net; layers hold (W, b), activations per layer.

    ``weights`` and ``biases`` are views of ``flat``, one contiguous array
    (float32 unless the caller passes another) in the order of ``.params()``;
    forward and backward compute in its dtype."""

    def __init__(self, flat: np.ndarray, dims: list[int], activations: tuple[str, ...]):
        if len(dims) != len(activations) + 1 or flat.shape != (param_count(dims),):
            raise InvalidArgument("layer sizes, activations and buffer do not match")
        if not set(activations) <= {"tanh", "relu", "linear"}:
            raise InvalidArgument(f"unknown activation in {activations!r}")
        self.flat = flat
        params = split_params(flat, dims)
        self.weights = params[0::2]
        self.biases = params[1::2]
        self.activations = tuple(activations)

    @classmethod
    def create(cls, dims: list[int], hidden_activations: tuple[str, ...],
               rng: np.random.Generator, out: np.ndarray | None = None) -> "Mlp":
        """dims = [in, h1, h2, h3, out]; output layer is linear. The
        parameters are drawn into ``out`` (a new float32 buffer if None):
        float64 ``rng.uniform`` draws, rounded to the buffer's dtype."""
        acts = tuple(hidden_activations) + ("linear",)
        net = cls(np.empty(param_count(dims), dtype=np.float32) if out is None else out,
                  dims, acts)
        for w, b in zip(net.weights, net.biases):
            bound = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            b.fill(0.0)
        return net

    @property
    def dims(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def params(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def forward(self, x: np.ndarray, want_cache: bool = False):
        """x: (d,) or (n, d), cast to the buffer's dtype. Returns output, and
        the cache if requested.

        The cache lists every layer's input and then the output; ``backward``
        overwrites it."""
        single = x.ndim == 1
        h = np.atleast_2d(np.asarray(x, dtype=self.flat.dtype))
        cache = [h] if want_cache else None
        for w, b, a in zip(self.weights, self.biases, self.activations):
            h = h @ w
            h += b
            _activate(a, h)
            if cache is not None:
                cache.append(h)
        if not np.isfinite(h).all():
            raise TrainingDiagnostic("non-finite network output")
        out = h[0] if single else h
        return (out, cache) if want_cache else out

    def backward(self, cache: list, dout: np.ndarray,
                 grads: list[np.ndarray] | None = None):
        """Exact reverse pass down to layer 0's weights. dout: (n, out), cast
        to the buffer's dtype. Returns the gradients, (dW, db) interleaved in
        the order of .params(): written into ``grads`` if given (arrays
        shaped like .params()), else new arrays. The pass reuses the cache's
        buffers, so read the forward output before calling it."""
        if grads is None:
            grads = [np.empty_like(p) for p in self.params()]
        d = np.atleast_2d(np.asarray(dout, dtype=self.flat.dtype))
        for i in reversed(range(len(self.weights))):
            y = cache[i + 1]
            a = self.activations[i]
            if a == "tanh":                 # d * (1 - y*y)
                np.multiply(y, y, out=y)
                np.subtract(1.0, y, out=y)
                d = np.multiply(d, y, out=y)
            elif a == "relu":               # d * (y > 0), the same test as z > 0
                d = np.multiply(d, y > 0.0, out=y)
            np.matmul(cache[i].T, d, out=grads[2 * i])
            np.add.reduce(d, axis=0, out=grads[2 * i + 1])
            if i:
                d = d @ self.weights[i].T
        return grads


def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over unmasked entries, in float64 whatever the logits' dtype;
    masked entries exactly 0."""
    if not mask.any():
        raise ContractViolation("feasibility mask is empty")
    probs = np.zeros(logits.shape)
    z = logits[mask].astype(np.float64, copy=False)
    z = np.exp(z - z.max())
    probs[mask] = z / z.sum()
    return probs


@dataclass
class MlpSet:
    """One net per time-of-day step; ``nets[t]`` serves time t.

    ``flat`` holds the parameters of every net, net k's in the k-th of
    ``len(nets)`` equal slices."""

    nets: list[Mlp]
    kind: str                       # "policy" | "value"
    flat: np.ndarray = field(repr=False, compare=False)
    _grad: np.ndarray | None = field(default=None, init=False, repr=False)
    _grad_views: list = field(default_factory=list, init=False, repr=False)

    @property
    def horizon(self) -> int:
        return len(self.nets)

    def __reduce__(self):
        # pickle the buffer once; the nets are rebuilt as views of it
        return _new_set, (self.kind, self.nets[0].dims, len(self.nets), None, self.flat)

    def views(self, buf: np.ndarray) -> list[list[np.ndarray]]:
        """Per net, the views of ``buf`` (laid out like ``flat``) in .params() order."""
        size, dims = self.nets[0].flat.size, self.nets[0].dims
        return [split_params(buf[k * size:(k + 1) * size], dims) for k in range(len(self.nets))]

    @property
    def grad(self) -> np.ndarray:
        """Flat gradient buffer laid out like ``flat``; allocated on first use."""
        if self._grad is None:
            self._grad = np.empty_like(self.flat)
            self._grad_views = self.views(self._grad)
        return self._grad

    def _groups(self, t: np.ndarray, rows: np.ndarray):
        """(time, its rows in order) for each time among ``rows``, ascending."""
        times = t[rows]
        for tt in np.unique(times):
            yield int(tt), rows[times == tt]

    def forward_grouped(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Output of every row of x through the net of its time t[i], in row order."""
        out = np.empty((len(t), self.nets[0].dims[-1]))
        for tt, sel in self._groups(t, np.arange(len(t))):
            out[sel] = self.nets[tt].forward(x[sel])
        return out

    def grouped_gradient(self, x: np.ndarray, t: np.ndarray, rows: np.ndarray,
                         head: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
        """Gradient of a loss over the minibatch ``rows`` of x (times t[rows]),
        written into ``grad``, which it returns.

        Each time's rows ``sel`` go forward through its net; ``head(sel, out)``
        returns d(loss)/d(out) and the reverse pass writes the net's gradient
        into its slice of ``grad``. Nets without rows get zeros."""
        grad = self.grad
        idle = set(range(len(self.nets)))
        for tt, sel in self._groups(t, rows):
            out, cache = self.nets[tt].forward(x[sel], want_cache=True)
            self.nets[tt].backward(cache, head(sel, out), self._grad_views[tt])
            idle.discard(tt)
        for k in idle:
            for g in self._grad_views[k]:
                g.fill(0.0)
        return grad


def _new_set(kind: str, dims: list[int], count: int,
             rng: np.random.Generator | None = None,
             flat: np.ndarray | None = None) -> MlpSet:
    """``count`` nets over one buffer: drawn from ``rng``, or views of ``flat``."""
    size, acts = param_count(dims), _ACT_SETS[kind]
    flat = np.empty(count * size, dtype=np.float32) if flat is None else flat
    parts = [flat[k * size:(k + 1) * size] for k in range(count)]
    nets = [Mlp.create(dims, acts, rng, out=part) if rng is not None
            else Mlp(part, dims, acts + ("linear",)) for part in parts]
    return MlpSet(nets, kind, flat)


def create_policy_set(obs_dim: int, veh_dim: int, n_actions: int, horizon: int,
                      rng: np.random.Generator, hidden: int) -> MlpSet:
    return _new_set("policy", [obs_dim + veh_dim, hidden, hidden, hidden, n_actions],
                    horizon, rng=rng)


def create_value_set(obs_dim: int, horizon: int, rng: np.random.Generator,
                     hidden: int) -> MlpSet:
    return _new_set("value", [obs_dim, hidden, hidden, hidden, 1], horizon, rng=rng)


def forward_policy(pset: MlpSet, obs: np.ndarray, veh: np.ndarray, mask: np.ndarray,
                   t: int) -> np.ndarray:
    return masked_softmax(pset.nets[t].forward(np.concatenate([obs, veh])), mask)


# -- optimizer ----------------------------------------------------------------

# Elements per Adam chunk: a chunk of the parameters, gradients, both moments
# and the two work rows (6 x 128 KiB in float32) stays in a core's L2 cache,
# and the chunks are few enough that the per-call cost of the 14 ufuncs stays
# small (65536 and 131072 measured no faster on 583,696 float32 parameters).
_ADAM_CHUNK = 32768

# Adam's moment decay rates and denominator offset (Kingma & Ba, 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam moments ``m`` and ``v``, flat buffers laid out like the parameters."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    _work: np.ndarray | None = field(default=None, init=False, repr=False)

    @classmethod
    def for_set(cls, mset: MlpSet) -> "AdamState":
        return cls(np.zeros_like(mset.flat), np.zeros_like(mset.flat))


def adam_step(p: np.ndarray, g: np.ndarray, state: AdamState, lr: float) -> None:
    """Standard Adam with bias correction; updates the flat buffer ``p`` in place.

    ``p``, its gradient ``g`` and ``state.m``/``state.v`` are contiguous arrays
    of one size and dtype, such as a set's ``flat`` and ``grad``; the update
    is computed in that dtype. Each element sees the
    operations, in order, of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
    p -= lr * (m/corr1) / (sqrt(v/corr2) + eps)."""
    m, v = state.m, state.v
    if not (p.size == g.size == m.size == v.size and p.dtype == g.dtype == m.dtype == v.dtype
            and p.flags.c_contiguous and m.flags.c_contiguous and v.flags.c_contiguous):
        raise ContractViolation(
            "adam_step: arrays differ in size or dtype or are not contiguous")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    corr1 = 1.0 - b1 ** state.step
    corr2 = 1.0 - b2 ** state.step
    if state._work is None:
        state._work = np.empty((2, _ADAM_CHUNK), dtype=p.dtype)
    p, g, m, v = p.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1)
    for lo in range(0, p.size, _ADAM_CHUNK):
        hi = min(lo + _ADAM_CHUNK, p.size)
        pc, gc, mc, vc = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
        s, r = state._work[0, :hi - lo], state._work[1, :hi - lo]
        mc *= b1
        np.multiply(gc, 1.0 - b1, out=s)
        mc += s
        vc *= b2
        np.multiply(gc, 1.0 - b2, out=s)
        s *= gc
        vc += s
        np.divide(mc, corr1, out=s)
        s *= lr
        np.divide(vc, corr2, out=r)
        np.sqrt(r, out=r)
        r += ADAM_EPS
        s /= r
        pc -= s


# -- checkpoints ---------------------------------------------------------------

_MAGIC = b"FLNN"
_KINDS = {"policy": 0, "value": 1}
_KIND_NAMES = {v: k for k, v in _KINDS.items()}
_ACT_SETS = {"policy": POLICY_ACTIVATIONS, "value": VALUE_ACTIVATIONS}


def save_set(path, pset: MlpSet) -> None:
    """Self-describing binary: int32 header (version, kind, shared = 0, horizon,
    net count, layer count, layer dims) then all parameters as little-endian
    float32."""
    dims = pset.nets[0].dims
    with open(path, "wb") as f:
        f.write(_MAGIC)
        header = [1, _KINDS[pset.kind], 0, pset.horizon, len(pset.nets), len(dims)] + dims
        f.write(np.asarray(header, dtype="<i4").tobytes())
        f.write(pset.flat.astype("<f4").tobytes())


def _read(f, n: int, path) -> bytes:
    """Exactly n bytes, or InvalidArgument; never asks for more than the file holds."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise InvalidArgument(f"{path}: truncated checkpoint")
    return f.read(n)


def load_set(path) -> MlpSet:
    with open(path, "rb") as f:
        if f.read(4) != _MAGIC:
            raise InvalidArgument(f"{path}: not a network checkpoint")
        fixed = np.frombuffer(_read(f, 6 * 4, path), dtype="<i4")
        version, kind_id, shared, horizon, n_nets, n_dims = (int(x) for x in fixed)
        if version != 1:
            raise InvalidArgument(f"{path}: unsupported checkpoint version {version}")
        if kind_id not in _KIND_NAMES:
            raise InvalidArgument(f"{path}: unknown network kind {kind_id}")
        kind = _KIND_NAMES[kind_id]
        if n_dims != len(_ACT_SETS[kind]) + 2:
            raise InvalidArgument(f"{path}: {n_dims} layer sizes for a {kind} network")
        if shared != 0:
            raise InvalidArgument(f"{path}: shared time-conditioned networks "
                                  f"(header shared={shared}) are not supported")
        if horizon < 1 or n_nets != horizon:
            raise InvalidArgument(f"{path}: {n_nets} nets for horizon {horizon}")
        dims = [int(x) for x in np.frombuffer(_read(f, n_dims * 4, path), dtype="<i4")]
        if min(dims) < 1:
            raise InvalidArgument(f"{path}: bad layer sizes {dims}")
        count = n_nets * param_count(dims)
        flat = np.frombuffer(_read(f, count * 4, path), dtype="<f4").astype(np.float32)
        if f.read(1):
            raise InvalidArgument(f"{path}: trailing bytes in checkpoint")
    return _new_set(kind, dims, n_nets, flat=flat)
