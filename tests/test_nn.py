"""Tests for the dense networks, backprop, Adam, and checkpoints."""

import pickle

import numpy as np
import pytest

from fleetlab import nn
from fleetlab.errors import ContractViolation, InvalidArgument

from conftest import float64_copy
from oracles import central_difference


def _net(rng, dims=(4, 8, 8, 8, 3), acts=nn.POLICY_ACTIVATIONS):
    """A net over a float64 buffer, to compare with float64 math."""
    return nn.Mlp.create(list(dims), acts, rng, out=np.empty(nn.param_count(list(dims))))


def test_forward_shapes_single_and_batch():
    rng = np.random.default_rng(0)
    net = _net(rng)
    x1 = rng.normal(size=4)
    xb = rng.normal(size=(7, 4))
    assert net.forward(x1).shape == (3,)
    assert net.forward(xb).shape == (7, 3)
    np.testing.assert_allclose(net.forward(xb)[0], net.forward(xb[0]))


def test_masked_softmax_exact_zeros_and_normalization():
    logits = np.array([1.0, 2.0, -3.0, 0.5])
    mask = np.array([True, False, True, True])
    p = nn.masked_softmax(logits, mask)
    assert p[1] == 0.0  # exact, not just small
    assert p.sum() == pytest.approx(1.0, abs=1e-15)
    assert (p[mask] > 0).all()
    # Matches plain softmax over the surviving entries.
    z = np.exp(logits[mask] - logits[mask].max())
    np.testing.assert_allclose(p[mask], z / z.sum())


def test_masked_softmax_empty_mask_rejected():
    with pytest.raises(ContractViolation):
        nn.masked_softmax(np.zeros(3), np.zeros(3, dtype=bool))


def test_masked_softmax_overflow_safe():
    p = nn.masked_softmax(np.array([1000.0, 999.0]), np.array([True, True]))
    assert np.isfinite(p).all()
    assert p.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("acts", [nn.POLICY_ACTIVATIONS, nn.VALUE_ACTIVATIONS])
def test_backward_matches_central_difference(acts):
    rng = np.random.default_rng(1)
    net = _net(rng, dims=(3, 5, 5, 5, 2), acts=acts)
    x = rng.normal(size=(4, 3))
    # shift ReLU pre-activations away from the kink
    proj = rng.normal(size=2)

    def loss_fn():
        return float(np.sum(net.forward(x) @ proj))

    out, cache = net.forward(x, want_cache=True)
    dout = np.tile(proj, (4, 1))
    grads = net.backward(cache, dout)

    for p, g in zip(net.params(), grads):
        flat = p.ravel()
        idx = rng.choice(flat.size, size=min(10, flat.size), replace=False)
        for i in idx:
            orig = flat[i]

            def f(val, i=i, flat=flat, orig=orig):
                flat[i] = val
                r = loss_fn()
                flat[i] = orig
                return r

            num = central_difference(f, orig)
            assert g.ravel()[i] == pytest.approx(num, rel=1e-5, abs=1e-7)


def test_adam_matches_reference_implementation():
    rng = np.random.default_rng(2)
    vset = float64_copy(nn.create_value_set(2, 1, rng, hidden=2))
    params = _set_params(vset)
    ref = [p.copy() for p in params]
    state = nn.AdamState.for_set(vset)
    m = [np.zeros_like(p) for p in ref]
    v = [np.zeros_like(p) for p in ref]
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    for step in range(1, 6):
        flat_grad = rng.normal(size=vset.flat.size)
        grads = vset.views(flat_grad)[0]
        nn.adam_step(vset.flat, flat_grad, state, lr)
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            mh = m[i] / (1 - b1 ** step)
            vh = v[i] / (1 - b2 ** step)
            ref[i] = ref[i] - lr * mh / (np.sqrt(vh) + eps)
        for p, r in zip(params, ref):
            np.testing.assert_allclose(p, r, rtol=1e-12, atol=1e-12)


def test_policy_set_per_time_nets_are_independent():
    rng = np.random.default_rng(3)
    pset = nn.create_policy_set(obs_dim=5, veh_dim=3, n_actions=4, horizon=3,
                                rng=rng, hidden=8)
    assert len(pset.nets) == pset.horizon == 3
    assert pset.nets[0] is not pset.nets[1]
    obs, veh = rng.normal(size=5), rng.normal(size=3)
    mask = np.ones(4, dtype=bool)
    p0 = nn.forward_policy(pset, obs, veh, mask, 0)
    p1 = nn.forward_policy(pset, obs, veh, mask, 1)
    assert not np.allclose(p0, p1)


def test_value_set_scalar_output():
    rng = np.random.default_rng(5)
    vset = nn.create_value_set(obs_dim=6, horizon=2, rng=rng, hidden=8)
    assert vset.nets[1].forward(rng.normal(size=6)).shape == (1,)


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    for kind, make in (("policy", lambda: nn.create_policy_set(5, 3, 4, 3, rng, hidden=8)),
                       ("value", lambda: nn.create_value_set(5, 3, rng, hidden=8))):
        pset = make()
        path = tmp_path / f"{kind}.bin"
        nn.save_set(path, pset)
        back = nn.load_set(path)
        assert back.kind == kind
        assert back.horizon == pset.horizon
        assert len(back.nets) == len(pset.nets)
        assert back.flat.dtype == pset.flat.dtype == np.float32
        for a, b in zip(pset.nets, back.nets):
            for pa, pb in zip(a.params(), b.params()):
                # float32 in memory and on disk: the weights come back exactly
                np.testing.assert_array_equal(pa, pb)


def test_checkpoint_round_trip_preserves_outputs(tmp_path):
    rng = np.random.default_rng(7)
    pset = nn.create_policy_set(5, 3, 4, 2, rng, hidden=8)
    nn.save_set(tmp_path / "p.bin", pset)
    back = nn.load_set(tmp_path / "p.bin")
    obs, veh = rng.normal(size=5), rng.normal(size=3)
    mask = np.array([True, True, False, True])
    p1 = nn.forward_policy(pset, obs, veh, mask, 1)
    p2 = nn.forward_policy(back, obs, veh, mask, 1)
    np.testing.assert_array_equal(p1, p2)


def test_load_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(InvalidArgument):
        nn.load_set(bad)


def test_load_rejects_trailing_bytes(tmp_path):
    rng = np.random.default_rng(8)
    pset = nn.create_value_set(4, 2, rng, hidden=8)
    path = tmp_path / "v.bin"
    nn.save_set(path, pset)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(InvalidArgument):
        nn.load_set(path)


def _set_params(mset):
    return [p for net in mset.nets for p in net.params()]


def test_set_params_are_views_of_one_buffer(tmp_path):
    rng = np.random.default_rng(9)
    sets = [nn.create_policy_set(5, 3, 4, 3, rng, hidden=8),
            nn.create_value_set(5, 3, rng, hidden=8)]
    for i, mset in enumerate(list(sets)):
        nn.save_set(tmp_path / f"{i}.bin", mset)
        sets += [nn.load_set(tmp_path / f"{i}.bin"), pickle.loads(pickle.dumps(mset))]
    for mset in sets:
        params = _set_params(mset)
        assert all(p.base is mset.flat for p in params)
        # back to back in .params() order: numbering the buffer numbers the params
        mset.flat[:] = np.arange(mset.flat.size)
        np.testing.assert_array_equal(np.concatenate([p.ravel() for p in params]),
                                      np.arange(mset.flat.size))


def test_save_load_round_trip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(10)
    for i, mset in enumerate((nn.create_policy_set(5, 3, 4, 3, rng, hidden=8),
                              nn.create_value_set(5, 2, rng, hidden=8))):
        first, second = tmp_path / f"{i}a.bin", tmp_path / f"{i}b.bin"
        nn.save_set(first, mset)
        nn.save_set(second, nn.load_set(first))
        assert first.read_bytes() == second.read_bytes()


def test_create_draws_what_rng_uniform_draws():
    dims = [5, 8, 8, 8, 3]
    net = nn.Mlp.create(dims, nn.POLICY_ACTIVATIONS, np.random.default_rng(11))
    rng = np.random.default_rng(11)
    for w, b in zip(net.weights, net.biases):
        bound = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        want = rng.uniform(-bound, bound, size=w.shape).astype(np.float32)
        assert w.dtype == np.float32 and w.tobytes() == want.tobytes()
        assert not b.any()


def test_adam_on_flat_buffer_matches_per_array_loop(monkeypatch):
    """One adam_step over a set's flat buffers gives the bits of the plain
    per-array update on copies, across chunk boundaries and for a net whose
    gradient is zero, in float64 and in the float32 of training."""
    monkeypatch.setattr(nn, "_ADAM_CHUNK", 500)
    rng = np.random.default_rng(12)
    for dtype in (np.float64, np.float32):
        pset = nn.create_policy_set(5, 3, 4, 3, rng, hidden=16)
        if dtype == np.float64:
            pset = float64_copy(pset)
        assert pset.flat.size > 3 * nn._ADAM_CHUNK and pset.flat.size % nn._ADAM_CHUNK
        ref = [p.copy() for p in _set_params(pset)]
        m = [np.zeros_like(p) for p in ref]
        v = [np.zeros_like(p) for p in ref]
        state = nn.AdamState.for_set(pset)
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        for step in range(1, 5):
            grad = rng.normal(size=pset.flat.size).astype(dtype)
            if step == 3:
                grad[:pset.nets[0].flat.size] = 0.0
            nn.adam_step(pset.flat, grad, state, lr)
            size, dims = pset.nets[0].flat.size, pset.nets[0].dims
            grads = [g.copy() for k in range(len(pset.nets))
                     for g in nn.split_params(grad[k * size:(k + 1) * size], dims)]
            corr1, corr2 = 1.0 - b1 ** step, 1.0 - b2 ** step
            for p, g, mi, vi in zip(ref, grads, m, v):
                mi *= b1
                mi += (1.0 - b1) * g
                vi *= b2
                vi += (1.0 - b2) * g * g
                p -= lr * (mi / corr1) / (np.sqrt(vi / corr2) + eps)
            assert pset.flat.tobytes() == np.concatenate([p.ravel() for p in ref]).tobytes()
            moments = [a for buf in (state.m, state.v) for net in pset.views(buf) for a in net]
            for got, want in zip(moments, m + v):
                assert got.tobytes() == want.tobytes()


def test_adam_rejects_a_gradient_of_another_dtype():
    """A gradient whose dtype differs from the weights' is refused, not cast."""
    pset = nn.create_value_set(3, 2, np.random.default_rng(15), hidden=4)
    state = nn.AdamState.for_set(pset)
    with pytest.raises(ContractViolation):
        nn.adam_step(pset.flat, np.zeros(pset.flat.size), state, 1e-3)
    assert state.step == 0


def test_grouped_gradient_matches_per_net_backward():
    """Each time's rows give their net's backward, and unused nets get zeros
    even over a dirty buffer."""
    rng = np.random.default_rng(13)
    vset = nn.create_value_set(4, 3, rng, hidden=6)
    x = rng.normal(size=(9, 4))
    t = np.array([2, 0, 2, 2, 0, 1, 0, 2, 1])
    rows = np.array([0, 2, 3, 4, 6, 7])          # no row at time 1
    vset.grad[:] = np.nan
    heads = []

    def head(sel, y):
        heads.append(sel)
        return y                                  # d(loss)/d(out) for sum(out**2)/2

    grad = vset.grouped_gradient(x, t, rows, head)
    want = np.zeros_like(vset.flat)
    size = vset.nets[0].flat.size
    for sel in heads:
        tt = int(t[sel[0]])
        assert (t[sel] == tt).all()
        out, cache = vset.nets[tt].forward(x[sel], want_cache=True)
        g = vset.nets[tt].backward(cache, out.copy())
        want[tt * size:(tt + 1) * size] = np.concatenate([gi.ravel() for gi in g])
    assert [int(t[sel[0]]) for sel in heads] == [0, 2]
    np.testing.assert_array_equal(grad, want)
    assert grad is vset.grad


def test_float32_gradient_matches_float64_of_the_same_weights():
    """grouped_gradient in the float32 of training agrees with the same
    weights upcast to float64, within 1e-4 of the gradient's norm."""
    rng = np.random.default_rng(14)
    x = rng.normal(size=(64, 10))
    t = rng.integers(0, 3, size=64)
    rows = rng.choice(64, size=48, replace=False)
    for mset in (nn.create_policy_set(7, 3, 5, 3, rng, hidden=32),
                 nn.create_value_set(10, 3, rng, hidden=32)):
        target = rng.normal(size=(64, mset.nets[0].dims[-1]))

        def head(sel, y):
            return y.astype(np.float64) - target[sel]   # squared error / 2

        g32 = mset.grouped_gradient(x, t, rows, head).copy()
        g64 = float64_copy(mset).grouped_gradient(x, t, rows, head)
        assert g32.dtype == np.float32 and g64.dtype == np.float64
        assert np.linalg.norm(g32 - g64) <= 1e-4 * np.linalg.norm(g64)
