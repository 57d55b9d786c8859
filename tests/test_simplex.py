import hashlib

import numpy as np
import pytest

from fleetlab import simplex
from fleetlab.errors import ContractViolation, InvalidArgument, LpInfeasible, LpUnbounded
from fleetlab.fluid import build_full_lp, build_reduced_lp
from fleetlab.scenarios import synth_scenario
from fleetlab.simplex import LpProblem, export_mps, solve

from conftest import highs_optimum, tiny_config
from oracles import lp_optimum_exact


def test_textbook_maximum():
    p = LpProblem.from_dense(np.array([3.0, 2.0]),
                             np.array([[1.0, 1.0], [2.0, 1.0]]),
                             ["<=", "<="], np.array([4.0, 5.0]), maximize=True)
    s = solve(p)
    assert s.objective == pytest.approx(9.0, abs=1e-9)
    assert np.allclose(s.x, [1.0, 3.0], atol=1e-9)


def test_minimization_with_equality():
    p = LpProblem.from_dense(np.array([1.0, 2.0, 0.0]),
                             np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]]),
                             ["=", ">="], np.array([3.0, 1.0]), maximize=False)
    s = solve(p)
    assert s.objective == pytest.approx(1.0, abs=1e-9)   # x = (1, 0, 2)


def test_infeasible_detected():
    p = LpProblem.from_dense(np.array([1.0]), np.array([[1.0], [1.0]]),
                             [">=", "<="], np.array([2.0, 1.0]), maximize=False)
    with pytest.raises(LpInfeasible):
        solve(p)


def test_unbounded_detected():
    p = LpProblem.from_dense(np.array([1.0, 0.0]), np.array([[0.0, 1.0]]),
                             ["<="], np.array([1.0]), maximize=True)
    with pytest.raises(LpUnbounded):
        solve(p)


def test_negative_rhs_rows_are_flipped():
    # x >= 2 written as -x <= -2
    p = LpProblem.from_dense(np.array([1.0]), np.array([[-1.0]]), ["<="],
                             np.array([-2.0]), maximize=False)
    s = solve(p)
    assert s.objective == pytest.approx(2.0, abs=1e-9)


def test_dimension_mismatch_rejected():
    with pytest.raises(InvalidArgument):
        LpProblem.from_dense(np.array([1.0, 2.0]), np.array([[1.0]]), ["<="], np.array([1.0]))


def test_duals_satisfy_strong_duality():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        c = rng.uniform(-1, 2, n)
        A = rng.uniform(0, 2, (m, n))
        b = rng.uniform(1, 5, m)
        p = LpProblem.from_dense(c, A, ["<="] * m, b, maximize=True)
        s = solve(p)
        assert s.objective == pytest.approx(float(s.duals @ b), abs=1e-7)


def _random_bounded_lp(rng):
    n = int(rng.integers(2, 6))
    m = int(rng.integers(2, 6))
    c = np.round(rng.uniform(-3, 5, n), 2)
    A = np.round(rng.uniform(-2, 3, (m, n)), 2)
    senses = [rng.choice(["<=", ">=", "="]) if i else "<=" for i in range(m)]
    b = np.round(rng.uniform(0, 6, m), 2)
    # box row keeps every instance bounded so the vertex oracle is exact
    A = np.vstack([A, np.ones(n)])
    senses = senses + ["<="]
    b = np.append(b, 25.0)
    return LpProblem.from_dense(c, A, senses, b, maximize=bool(rng.integers(0, 2)))


def test_matches_rational_vertex_enumeration_on_100_random_lps():
    rng = np.random.default_rng(7)
    checked = 0
    infeasible = 0
    while checked + infeasible < 100:
        p = _random_bounded_lp(rng)
        exact = lp_optimum_exact(p.objective, p.A, p.senses, p.b, p.maximize)
        if exact is None:
            with pytest.raises(LpInfeasible):
                solve(p)
            infeasible += 1
            continue
        s = solve(p)
        assert abs(s.objective - float(exact)) <= 1e-9 * max(1.0, abs(float(exact)))
        checked += 1
    assert checked >= 50          # generator must exercise plenty of feasible LPs


@pytest.mark.parametrize("block", [1, 2, 5])
def test_small_update_blocks_match_rational_vertex_enumeration(monkeypatch, block):
    """Flushing the pending inverse updates every 1, 2 or 5 pivots reaches
    the oracle's optimum on the same 100 random LPs."""
    monkeypatch.setattr(simplex, "_BLOCK", block)
    test_matches_rational_vertex_enumeration_on_100_random_lps()


class _Stop(Exception):
    pass


@pytest.mark.parametrize("pending", [1, 7, simplex._BLOCK - 1])
def test_pending_updates_read_as_the_true_inverse(monkeypatch, pending):
    """After fewer than _BLOCK pivots, with every update still pending, the
    corrected rows, ftran and btran of the solver's inverse equal those of
    np.linalg.inv of the current basis."""
    p, _ = build_reduced_lp(synth_scenario("two-region-commute", 0))
    original = simplex._Revised.pivot

    def pivot(st, *args):
        original(st, *args)
        if st.since_refactor == pending:
            raise _Stop(st)

    monkeypatch.setattr(simplex._Revised, "pivot", pivot)
    with pytest.raises(_Stop) as stop:
        simplex._solve(p, perturb=True)
    st = stop.value.args[0]
    assert st.k == pending
    Binv = np.linalg.inv(st.cols.dense(st.basis))
    m = len(st.basis)
    assert np.allclose(np.array([st.row(r) for r in range(m)]), Binv, rtol=0, atol=1e-9)
    for q in range(0, st.cols.n, 37):
        a_q = st.cols.dense(np.array([q]))[:, 0]
        assert np.allclose(st.ftran(q), Binv @ a_q, rtol=0, atol=1e-9)
    v = np.random.default_rng(3).normal(size=m)
    assert np.allclose(st.btran(v), v @ Binv, rtol=0, atol=1e-9)


@pytest.mark.parametrize("template,formulation", [
    ("two-region-commute", "reduced"), ("uniform", "reduced"), ("two-region-commute", "full"),
])
def test_peeled_inverse_matches_lapack_at_every_refactor(monkeypatch, template, formulation):
    """Every refactor of bound's LPs (seed 1) yields np.linalg.inv of the
    basis to 1e-12."""
    build = build_reduced_lp if formulation == "reduced" else build_full_lp
    p, _ = build(synth_scenario(template, 1))
    original = simplex._Revised.refactor
    checked = 0

    def refactor(st):
        nonlocal checked
        want = np.linalg.inv(st.cols.dense(st.basis))
        original(st)
        assert np.allclose(st.Binv0, want, rtol=0, atol=1e-12)
        checked += 1

    monkeypatch.setattr(simplex._Revised, "refactor", refactor)
    solve(p)
    assert checked >= 3


def _peel(B):
    """_peeled_inverse of the dense B: (inverse, kernel size)."""
    rows, cols = np.nonzero(B)
    out = np.empty(B.shape)
    return out, simplex._peeled_inverse(rows, cols, B[rows, cols], out)


def _hub_spoke_first_basis(monkeypatch):
    """The basis at the first refactor of hub-spoke's reduced LP (seed 1)."""
    p, _ = build_reduced_lp(synth_scenario("hub-spoke-imbalanced", 1))

    def refactor(st):
        raise _Stop(st.cols.dense(st.basis))

    monkeypatch.setattr(simplex._Revised, "refactor", refactor)
    with pytest.raises(_Stop) as stop:
        simplex._solve(p, perturb=True)
    return stop.value.args[0]


def _block_triangular(rng, front, kernel, back):
    """Block lower-triangular: lower-triangular front and back blocks around
    a dense kernel, the back's rows dense over the kernel's columns, and
    sparse entries below the diagonal blocks."""
    m = front + kernel + back
    B = np.tril(np.where(rng.random((m, m)) < 0.1, rng.uniform(-1.0, 1.0, (m, m)), 0.0))
    k = slice(front, front + kernel)
    B[k, k] = rng.uniform(-1.0, 1.0, (kernel, kernel)) + 4.0 * np.eye(kernel)
    B[front + kernel:, k] = rng.uniform(0.5, 1.0, (back, kernel))
    B[np.diag_indices(m)] += 3.0
    return B


@pytest.mark.parametrize("kind", ["diagonal", "triangular", "dense", "mixed", "hub-spoke"])
def test_peeled_inverse_of_permuted_matrices(monkeypatch, kind):
    """Row- and column-permuted matrices invert correctly whether they peel
    completely (kernel 0), not at all, or partly."""
    rng = np.random.default_rng(17)
    if kind == "diagonal":
        B, kernel = np.diag(rng.uniform(1.0, 2.0, 10)), 0
    elif kind == "triangular":
        B, kernel = _block_triangular(rng, 40, 0, 0), 0
    elif kind == "dense":
        B, kernel = rng.uniform(-1.0, 1.0, (30, 30)) + 8.0 * np.eye(30), 30
    elif kind == "mixed":
        B, kernel = _block_triangular(rng, 15, 20, 15), 20
    else:
        B, kernel = _hub_spoke_first_basis(monkeypatch), 0
    m = B.shape[0]
    B = B[rng.permutation(m)][:, rng.permutation(m)]
    inv, k = _peel(B)
    assert k == kernel
    assert np.allclose(inv, np.linalg.inv(B), rtol=0, atol=1e-12)
    assert np.abs(B @ inv - np.eye(m)).max() <= 1e-12


@pytest.mark.parametrize("B", [
    # rows 0 and 1 are singletons of the first round on the same column 0
    [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
    # column 1 is empty
    [[1.0, 0.0, 2.0], [3.0, 0.0, 1.0], [1.0, 0.0, 1.0]],
    # a singleton (row 0) then a kernel with two equal rows
    [[5.0, 0.0, 0.0, 0.0], [1.0, 2.0, 1.0, 1.0], [0.0, 2.0, 1.0, 1.0], [1.0, 1.0, 3.0, 2.0]],
], ids=["duplicate-singleton", "zero-column", "singular-kernel"])
def test_peeled_inverse_rejects_singular_bases(B):
    with pytest.raises(ContractViolation, match="basis became singular"):
        _peel(np.array(B))


def test_refactor_forms_no_dense_basis(monkeypatch):
    """refactor builds B^-1 from the sparse basis columns alone: with
    _Columns.dense unavailable it still yields the inverse."""
    p, _ = build_reduced_lp(synth_scenario("two-region-commute", 1))
    original = simplex._Revised.pivot

    def pivot(st, *args):
        original(st, *args)
        if st.since_refactor == 150:
            raise _Stop(st)

    monkeypatch.setattr(simplex._Revised, "pivot", pivot)
    with pytest.raises(_Stop) as stop:
        simplex._solve(p, perturb=True)
    st = stop.value.args[0]
    want = np.linalg.inv(st.cols.dense(st.basis))

    def dense(*args):
        raise AssertionError("refactor formed a dense basis")

    monkeypatch.setattr(simplex._Columns, "dense", dense)
    st.refactor()
    assert st.k == 0 and st.since_refactor == 0
    assert np.allclose(st.Binv0, want, rtol=0, atol=1e-12)
    assert np.allclose(st.x, want @ st.rhs, rtol=0, atol=1e-9)


def test_degenerate_rhs_terminates():
    # many zero right-hand sides: the anti-stall path must still finish
    rng = np.random.default_rng(11)
    n, m = 12, 14
    A = rng.uniform(-1, 1, (m, n))
    b = np.zeros(m)
    b[-1] = 1.0
    A[-1] = np.abs(A[-1])
    p = LpProblem.from_dense(rng.uniform(-1, 1, n), A, ["="] * (m - 1) + ["<="], b,
                             maximize=True)
    reference = _highs_objective(p)
    if reference is None:
        with pytest.raises(LpInfeasible):
            solve(p)
        return
    s = solve(p)
    assert p.residuals(s.x).max() <= 1e-8
    assert abs(s.objective - reference) <= 1e-7 * max(1.0, abs(reference))


def _highs_objective(problem):
    """scipy HiGHS optimum in the problem's own sense; None if infeasible."""
    optimum = highs_optimum(problem)
    return None if optimum is None else optimum[0]


@pytest.mark.parametrize("template,formulation", [
    ("two-region-commute", "reduced"), ("uniform", "reduced"),
    ("hub-spoke-imbalanced", "reduced"), ("two-region-commute", "full"),
])
def test_fleet_lps_match_highs(template, formulation):
    config = synth_scenario(template, 0)
    build = build_reduced_lp if formulation == "reduced" else build_full_lp
    p, _ = build(config)
    s = solve(p)
    reference = _highs_objective(p)
    assert abs(s.objective - reference) <= 1e-6 * max(1.0, abs(reference))
    scale = max(1.0, float(np.abs(p.b).max()))
    assert p.residuals(s.x).max() <= 1e-8 * scale


def test_blands_rule_on_tiny_fleet_lp(monkeypatch):
    """With the stall limit at 0 Bland's rule takes over at the first pivot
    that does not improve the objective, and the solve ends at the same
    optimum as the steepest-edge solve and HiGHS. The unperturbed run keeps
    the fleet LP's degenerate pivots, so it stalls for certain."""
    p, _ = build_reduced_lp(tiny_config())
    before = solve(p)
    assert before.bland_activations == 0
    monkeypatch.setattr(simplex, "_STALL_LIMIT", 0)
    s = simplex._solve(p, perturb=False)
    assert s.bland_activations >= 1
    reference = _highs_objective(p)
    assert s.objective == pytest.approx(before.objective, rel=1e-9)
    assert abs(s.objective - reference) <= 1e-7 * max(1.0, abs(reference))
    assert p.residuals(s.x).max() <= 1e-8 * max(1.0, float(np.abs(p.b).max()))


def test_diagnostics_split_the_pivot_count():
    p = LpProblem.from_dense(np.array([3.0, 2.0]),
                             np.array([[1.0, 1.0], [2.0, 1.0]]),
                             ["<=", "<="], np.array([4.0, 5.0]), maximize=True)
    s = solve(p)
    assert s.iterations > 0
    assert s.phase1_pivots + s.phase2_pivots == s.iterations
    assert s.bland_activations == 0 and not s.exact_retry
    assert s.drive_out_pivots == 0               # phase 1 leaves no artificial basic


def test_drive_out_pivots_are_counted_apart(monkeypatch):
    """Pivots that push a zero artificial out of the basis after phase 1 show
    in drive_out_pivots and not in iterations."""
    p, _ = build_reduced_lp(tiny_config())
    calls = 0
    original = simplex._Revised.pivot

    def pivot(st, *args):
        nonlocal calls
        calls += 1
        original(st, *args)

    monkeypatch.setattr(simplex._Revised, "pivot", pivot)
    s = solve(p)
    assert s.drive_out_pivots > 0
    assert calls == s.iterations + s.drive_out_pivots


def test_mps_export_round_trip_structure(tmp_path):
    p = LpProblem.from_dense(np.array([1.0, -2.0]), np.array([[1.0, 1.0], [1.0, -1.0]]),
                             ["<=", ">="], np.array([3.0, -1.0]), maximize=True, name="demo")
    path = tmp_path / "demo.mps"
    export_mps(p, path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0].startswith("NAME")
    for section in ("ROWS", "COLUMNS", "RHS", "ENDATA"):
        assert any(line.startswith(section) for line in lines)
    # every referenced name fits fixed-format MPS (8 chars max)
    for token in ("R0000000", "R0000001", "C0000000", "C0000001"):
        assert token in text
        assert len(token) <= 8


def test_residuals_follow_the_row_rule():
    """Array residuals equal the per-row rule max(Ax - b, 0), max(b - Ax, 0),
    |Ax - b|, signed zeros included, where each row's Ax is summed over its
    nonzeros in the solver's order: column by column, from 0.0."""
    rng = np.random.default_rng(5)
    A = rng.normal(size=(30, 6))
    A[:3] = 0.0                                  # rows whose Ax is exactly 0
    b = rng.normal(size=30)
    b[:3] = [0.0, -0.0, 0.0]
    senses = [("<=", ">=", "=")[i % 3] for i in range(30)]
    p = LpProblem.from_dense(np.zeros(6), A, senses, b)
    x = rng.uniform(0.0, 2.0, size=6)
    ax = [0.0] * 30
    for j in range(6):
        for i in np.nonzero(A[:, j])[0]:
            ax[i] += A[i, j] * x[j]
    want = [max(ax[i] - b[i], 0.0) if s == "<=" else
            max(b[i] - ax[i], 0.0) if s == ">=" else abs(ax[i] - b[i])
            for i, s in enumerate(senses)]
    got = p.residuals(x)
    assert got.tolist() == want
    assert np.signbit(got).tolist() == np.signbit(want).tolist()


def test_certificate_names_first_failing_dual_slack_row():
    # rows 1 and 2 both carry a dual on a slack constraint; row 1 is named
    p = LpProblem.from_dense(np.zeros(2), np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
                             ["<=", "<=", ">="], np.array([1.0, 1.0, -5.0]))
    flip = np.array([1.0, 1.0, -1.0])
    senses = ["<=", "<=", "<="]                  # row 2 flipped
    with pytest.raises(ContractViolation, match=r"dual-slack product 2\.000e\+00 at row 1$"):
        simplex._certify(p, flip, flip * p.b, senses, np.zeros(5),
                         np.array([0.0, 2.0, 3.0]), np.zeros(5), 2)


#: SHA-256 of export_mps's bytes, recorded from the dense-matrix export
#: that preceded the sparse one
GOLDEN_MPS_DIGESTS = {
    ("tiny", "full"): "c733e6e2c4f3886079f79e8b4ac7ffdb731475042010bebd594ed36152da4890",
    ("tiny", "reduced"): "9eea4bbb3c32bfde637445b135eeec920ed7f5e1d7faf3151414f481791bdfe2",
    ("two-region-commute", "reduced"):
        "43a1de519885f3267d5deba6c3d63ceb871d549b7888abcb7a630f7f277ffe4e",
}


@pytest.mark.parametrize("scenario, formulation", sorted(GOLDEN_MPS_DIGESTS))
def test_mps_export_matches_recorded_digests(tmp_path, scenario, formulation):
    config = tiny_config() if scenario == "tiny" else synth_scenario(scenario, 0)
    build = build_full_lp if formulation == "full" else build_reduced_lp
    path = tmp_path / "lp.mps"
    export_mps(build(config)[0], path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_MPS_DIGESTS[(scenario, formulation)]


def _entries_lp(rows, cols, values, m=3, n=2):
    return LpProblem.from_entries(np.ones(n), rows, cols, values, ["<="] * m, np.ones(m))


@pytest.mark.parametrize("rows, cols, values, match", [
    ([0, 3], [0, 1], [1.0, 2.0], "row index out of range"),
    ([0, -1], [0, 1], [1.0, 2.0], "row index out of range"),
    ([0, 1], [0, 2], [1.0, 2.0], "column index out of range"),
    ([0, 1], [-1, 1], [1.0, 2.0], "column index out of range"),
    ([2, 0, 2], [1, 0, 1], [1.0, 2.0, 3.0], "duplicate entry"),
    ([1, 1], [0, 0], [1.0, 0.0], "duplicate entry"),
    ([0, 1], [0, 1], [1.0, np.nan], "non-finite"),
    ([0, 1], [0, 1], [np.inf, 1.0], "non-finite"),
    ([0, 1, 2], [0, 1], [1.0, 2.0], "differ in length"),
    ([0, 1], [0, 1], [1.0], "differ in length"),
])
def test_sparse_input_is_validated(rows, cols, values, match):
    with pytest.raises(InvalidArgument, match=match):
        _entries_lp(rows, cols, values)


@pytest.mark.parametrize("rowind, colptr, values, match", [
    ([0, 1], [0, 1, 2], [1.0], "differ in length"),
    ([0, 1], [0, 2, 1], [1.0, 2.0], "column pointers"),
    ([0, 1], [1, 2, 2], [1.0, 2.0], "column pointers"),
    ([1, 0], [0, 2, 2], [1.0, 2.0], "rows out of order"),
    ([0, 1], [0, 2], [1.0, 2.0], "dimension mismatch"),
])
def test_malformed_compressed_columns_are_rejected(rowind, colptr, values, match):
    with pytest.raises(InvalidArgument, match=match):
        LpProblem(np.ones(2), rowind, colptr, values, ["<="] * 2, np.ones(2))


def test_sparse_input_is_sorted_and_drops_explicit_zeros():
    p = _entries_lp([2, 0, 1, 0, 2], [0, 1, 0, 0, 1], [3.0, 0.0, -0.0, 1.0, 5.0])
    assert p.rowind.tolist() == [0, 2, 2]
    assert p.colptr.tolist() == [0, 2, 3]
    assert p.values.tolist() == [1.0, 3.0, 5.0]
    assert p.A.tolist() == [[1.0, 0.0], [0.0, 0.0], [3.0, 5.0]]
    assert p.dot(np.array([2.0, 1.0])).tolist() == [2.0, 0.0, 11.0]


@pytest.mark.parametrize("template, formulation", [
    ("two-region-commute", "reduced"), ("uniform", "reduced"),
    ("hub-spoke-imbalanced", "reduced"), ("two-region-commute", "full"),
])
def test_standard_form_entries_in_dense_nonzero_order(template, formulation):
    """The standard form's structural entries are those np.nonzero(A.T)
    yields on the dense matrix, in that order: the order `tdot` sums in."""
    build = build_full_lp if formulation == "full" else build_reduced_lp
    p, _ = build(synth_scenario(template, 0))
    flip = np.where(p.b < 0, -1.0, 1.0)
    cols = simplex._Columns.standard_form(p, flip, p.senses)
    A = p.A
    want_cols, want_rows = np.nonzero(A.T)
    nnz = want_rows.size
    assert nnz == p.values.size
    assert np.array_equal(cols.rows[:nnz], want_rows)
    assert np.array_equal(cols.cols[:nnz], want_cols)
    assert np.array_equal(cols.vals[:nnz], A[want_rows, want_cols] * flip[want_rows])
