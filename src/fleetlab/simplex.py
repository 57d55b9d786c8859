"""Revised two-phase simplex solver for the fluid-allocation linear programs.

Problems are stated as max/min c'x subject to rows A_i x {<=,=,>=} b_i and
x >= 0, with A held as compressed sparse columns from the builder to the
certificate; no dense copy of A is made. Internally the solver works on the
standard equality form, A's columns with slack and surplus columns
appended, and runs phase 1 from an all-artificial basis. Nothing the size of
the tableau is stored: the solver keeps an explicit inverse of the m x m
basis, rebuilt from the sparse basis columns every `_REFACTOR_EVERY`
pivots. A rebuild peels off the basis's row and column singletons, which
make most of it triangular, and inverts only the dense kernel left over
(`_peeled_inverse`). Each pivot's rank-1 (product-form) update is held back
as a pair of vectors, and every `_BLOCK` pivots the pending pairs are
folded into the inverse as one matrix product (Sherman-Morrison-Woodbury;
Hager, "Updating the inverse of a matrix", SIAM Review 31, 1989); until
then each read of the inverse subtracts their correction. Each pivot forms only what it
needs: the entering column B^-1 a_q, the pivot row (row r of B^-1 times A,
over the sparse columns), and the updates of the reduced costs and of the
steepest-edge weights 1 + |B^-1 a_j|^2, which follow the Goldfarb-Reid
recurrence instead of being recomputed. A deterministic jitter of the basic
values keeps degenerate pivots making progress; after a stall pricing falls
back to Bland's least-index rule so cycling cannot occur, and a run whose
jittered basis does not restore cleanly is redone without jitter. The
solution and duals are recovered from the final basis (B x_B = b,
B'y = c_B) and optimality is certified by complementary-slackness
residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, InvalidArgument, LpInfeasible, LpUnbounded

_TOL = 1e-9
_FEAS_TOL = 1e-7
_STALL_LIMIT = 200
_REFACTOR_EVERY = 200        # pivots between fresh inverses of the basis
# pending rank-1 updates of the inverse per flush. On bound's three LPs
# (seed 1, one BLAS thread) blocks of 8, 16, 32, 64 and 128 took 641, 645,
# 604, 594 and 643 us per pivot call, against 1030 us when every pivot
# rewrote the inverse in place.
_BLOCK = 32


@dataclass
class LpProblem:
    """max/min objective'x  s.t.  A x (senses) b,  x >= 0.

    A is held only as compressed sparse columns: column j has the values
    `values[colptr[j]:colptr[j+1]]` at the rows `rowind[colptr[j]:colptr[j+1]]`,
    rows ascending and no explicit zeros (they are dropped). `from_entries`
    builds one from (row, column, value) entries in any order, `from_dense`
    from a dense array."""

    objective: np.ndarray
    rowind: np.ndarray
    colptr: np.ndarray
    values: np.ndarray
    senses: list[str]                 # per row: "<=", "=", ">="
    b: np.ndarray
    maximize: bool = True
    row_names: list[str] = field(default_factory=list)
    name: str = "lp"

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.rowind = np.asarray(self.rowind, dtype=np.intp)
        self.colptr = np.asarray(self.colptr, dtype=np.intp)
        self.values = np.asarray(self.values, dtype=float)
        m, n = self.shape
        if self.objective.ndim != 1 or self.b.ndim != 1 or len(self.senses) != m \
                or self.colptr.shape != (n + 1,):
            raise InvalidArgument("LP dimension mismatch")
        if self.rowind.ndim != 1 or self.rowind.shape != self.values.shape:
            raise InvalidArgument("LP matrix index and value arrays differ in length")
        if self.colptr[0] != 0 or self.colptr[-1] != self.values.size \
                or (np.diff(self.colptr) < 0).any():
            raise InvalidArgument("LP matrix column pointers are malformed")
        if ((self.rowind < 0) | (self.rowind >= m)).any():
            raise InvalidArgument("LP matrix row index out of range")
        if not (np.isfinite(self.objective).all() and np.isfinite(self.values).all()
                and np.isfinite(self.b).all()):
            raise InvalidArgument("LP has non-finite coefficients")
        cols = self.entry_cols()
        same = cols[1:] == cols[:-1]
        if (self.rowind[1:][same] <= self.rowind[:-1][same]).any():
            raise InvalidArgument("LP matrix has a duplicate entry or a column's rows "
                                  "out of order")
        nonzero = self.values != 0.0
        if not nonzero.all():
            self.rowind, self.values = self.rowind[nonzero], self.values[nonzero]
            self.colptr = np.r_[0, np.cumsum(np.bincount(cols[nonzero], minlength=n))]
        for s in self.senses:
            if s not in ("<=", "=", ">="):
                raise InvalidArgument(f"unknown row sense {s!r}")
        if not self.row_names:
            self.row_names = [f"r{i}" for i in range(m)]
        if len(self.row_names) != m or len(set(self.row_names)) != m:
            raise InvalidArgument("row names must be unique and match rows")

    @classmethod
    def from_entries(cls, objective, rows, cols, values, senses, b, **kwargs) -> LpProblem:
        """The LP whose A holds `values` at (`rows`, `cols`), in any order."""
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        values = np.asarray(values, dtype=float)
        if not rows.shape == cols.shape == values.shape or rows.ndim != 1:
            raise InvalidArgument("LP matrix index and value arrays differ in length")
        n = np.size(objective)
        if ((cols < 0) | (cols >= n)).any():
            raise InvalidArgument("LP matrix column index out of range")
        order = np.lexsort((rows, cols))             # by column, then row
        colptr = np.r_[0, np.cumsum(np.bincount(cols, minlength=n))]
        return cls(objective, rows[order], colptr, values[order], senses, b, **kwargs)

    @classmethod
    def from_dense(cls, objective, A, senses, b, **kwargs) -> LpProblem:
        """The LP with the dense constraint matrix A."""
        A = np.atleast_2d(np.asarray(A, dtype=float))
        if A.shape != (np.size(b), np.size(objective)):
            raise InvalidArgument("LP dimension mismatch")
        cols, rows = np.nonzero(A.T)
        return cls.from_entries(objective, rows, cols, A[rows, cols], senses, b, **kwargs)

    @property
    def shape(self) -> tuple[int, int]:
        return self.b.size, self.objective.size

    @property
    def A(self) -> np.ndarray:
        """A dense copy of the constraint matrix, made afresh on each read:
        for small LPs, tests and checks. The solver never reads it."""
        dense = np.zeros(self.shape)
        dense[self.rowind, self.entry_cols()] = self.values
        return dense

    def entry_cols(self) -> np.ndarray:
        """The column of each stored entry."""
        return np.repeat(np.arange(self.objective.size), np.diff(self.colptr))

    def dot(self, x: np.ndarray) -> np.ndarray:
        """A x, each row summed over its nonzeros in column order."""
        x = np.asarray(x, dtype=float)
        return np.bincount(self.rowind, weights=self.values * x[self.entry_cols()],
                           minlength=self.b.size)

    def residuals(self, x: np.ndarray) -> np.ndarray:
        """Signed constraint violations (0 when satisfied)."""
        return self.violations(self.dot(x))

    def violations(self, ax: np.ndarray) -> np.ndarray:
        """The residuals of a point whose row activities are `ax` = A x."""
        over, under = ax - self.b, self.b - ax
        senses = np.array(self.senses, dtype="U2")
        # as max(v, 0.0): v is kept unless below zero, so a -0.0 stays -0.0
        return np.where(senses == "<=", np.where(over < 0.0, 0.0, over),
                        np.where(senses == ">=", np.where(under < 0.0, 0.0, under),
                                 np.abs(over)))


@dataclass
class LpSolution:
    x: np.ndarray
    objective: float
    duals: np.ndarray
    iterations: int                   # phase-1 plus phase-2 pivots
    phase1_pivots: int = 0
    phase2_pivots: int = 0
    drive_out_pivots: int = 0         # artificials pivoted out after phase 1, not in `iterations`
    bland_activations: int = 0        # switches from steepest edge to Bland's rule
    exact_retry: bool = False         # the unperturbed retry produced this solution


class _Columns:
    """A standard-form matrix as compressed sparse columns. Column j holds
    `vals[ptr[j]:ptr[j+1]]` at rows `rows[ptr[j]:ptr[j+1]]`; `cols` repeats
    each entry's column so that products with every column are one
    `bincount`."""

    def __init__(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                 m: int, n: int):
        self.rows, self.cols, self.vals = rows, cols, vals
        self.m, self.n = m, n
        self.ptr = np.searchsorted(cols, np.arange(n + 1))

    @classmethod
    def standard_form(cls, problem: LpProblem, flip: np.ndarray,
                      senses: list[str]) -> _Columns:
        """[flip * A | slacks]: a +1 slack column per "<=" row and a -1
        surplus column per ">=" row, in row order, after A's columns."""
        m, n = problem.shape
        rows, cols = problem.rowind, problem.entry_cols()
        vals = problem.values * flip[rows]
        srows = np.array([i for i, s in enumerate(senses) if s != "="], dtype=np.intp)
        ssign = np.array([1.0 if senses[i] == "<=" else -1.0 for i in srows])
        return cls(np.concatenate([rows, srows]),
                   np.concatenate([cols, n + np.arange(srows.size)]),
                   np.concatenate([vals, ssign]), m, n + srows.size)

    def col(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        s, e = self.ptr[j], self.ptr[j + 1]
        return self.rows[s:e], self.vals[s:e]

    def tdot(self, v: np.ndarray) -> np.ndarray:
        """A'v over every column."""
        return np.bincount(self.cols, weights=self.vals * v[self.rows], minlength=self.n)

    def entries(self, js: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzeros of the columns `js` as (row, position in js, value);
        j >= n is the unit (artificial) column of row j - n."""
        real = np.nonzero(js < self.n)[0]
        start, stop = self.ptr[js[real]], self.ptr[js[real] + 1]
        lens = stop - start
        entry = np.repeat(start - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
        art = np.nonzero(js >= self.n)[0]
        return (np.concatenate([self.rows[entry], js[art] - self.n]),
                np.concatenate([np.repeat(real, lens), art]),
                np.concatenate([self.vals[entry], np.ones(art.size)]))

    def dense(self, js: np.ndarray) -> np.ndarray:
        """The columns `js` as a dense block."""
        rows, pos, vals = self.entries(js)
        out = np.zeros((self.m, len(js)))
        out[rows, pos] = vals
        return out

    def keep_rows(self, keep: np.ndarray) -> _Columns:
        new_row = np.cumsum(keep) - 1
        sel = keep[self.rows]
        return _Columns(new_row[self.rows[sel]], self.cols[sel], self.vals[sel],
                        int(keep.sum()), self.n)


_SINGULAR = "simplex basis became singular"


def _peeled_inverse(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                    out: np.ndarray) -> int:
    """Write the inverse of the m x m matrix B with nonzeros `vals` at
    (`rows`, `cols`) into `out` (m x m, rows of the result indexed by B's
    columns); returns the size of the dense kernel.

    Singletons are peeled first, in vectorised rounds (Suhl & Suhl,
    "Computing sparse LU factorizations for large-scale linear programming
    bases", ORSA J. Computing 2, 1990): every row with one nonzero among the
    remaining columns goes to the front, and once there are none, every
    column with one nonzero among the remaining rows goes to the back. Under
    that permutation B is block lower-triangular: one diagonal block per
    round and one dense block, the kernel, for what remains. B^-1 follows by
    block forward substitution, dividing by the pivots for the rounds and
    inverting only the kernel densely. No temporary is larger than one
    block's rows times m."""
    m = out.shape[0]
    row_live, col_live = np.ones(m, dtype=bool), np.ones(m, dtype=bool)
    live = np.arange(rows.size)                  # entries in unpeeled rows and columns
    front, back = [], []
    while True:
        r, c = rows[live], cols[live]
        rcount, ccount = np.bincount(r, minlength=m), np.bincount(c, minlength=m)
        if (rcount[row_live] == 0).any() or (ccount[col_live] == 0).any():
            raise ContractViolation(_SINGULAR)
        single, levels, pivot_line = live[rcount[r] == 1], front, cols
        if not single.size:
            single, levels, pivot_line = live[ccount[c] == 1], back, rows
            if not single.size:
                break
        if np.bincount(pivot_line[single], minlength=m).max() > 1:
            raise ContractViolation(_SINGULAR)   # two singletons of a round share a line
        levels.append((rows[single], cols[single], vals[single]))
        row_live[rows[single]] = False
        col_live[cols[single]] = False
        live = live[row_live[rows[live]] & col_live[cols[live]]]
    kernel = (np.nonzero(row_live)[0], np.nonzero(col_live)[0], None)
    blocks = front + [kernel] + back[::-1]

    # a block's rows meet only its own and earlier blocks' columns
    rblock, cblock = np.empty(m, dtype=np.intp), np.empty(m, dtype=np.intp)
    for i, (br, bc, _) in enumerate(blocks):
        rblock[br], cblock[bc] = i, i
    eb = rblock[rows]
    # the entries left of the diagonal blocks, grouped by block and then by
    # their rank within their row, so that a group meets each row once
    off = np.nonzero(cblock[cols] != eb)[0]
    off = off[np.lexsort((rows[off], eb[off]))]
    at = np.arange(off.size)
    rank = at - np.maximum.accumulate(np.where(np.r_[True, np.diff(rows[off]) != 0], at, 0))
    group = eb[off] * m + rank
    order = np.argsort(group, kind="stable")
    off, group = off[order], group[order]
    starts = np.nonzero(np.diff(group, prepend=-1))[0]
    ends = np.r_[starts[1:], off.size]
    gblock = group[starts] // m
    local = np.empty(m, dtype=np.intp)
    for i, (br, bc, piv) in enumerate(blocks):
        local[br] = np.arange(br.size)
        rhs = np.zeros((br.size, m))
        rhs[np.arange(br.size), br] = 1.0
        for s, e in zip(starts[gblock == i], ends[gblock == i]):
            g = off[s:e]
            term = out[cols[g]]
            term *= vals[g, None]
            rhs[local[rows[g]]] -= term
        if piv is not None:
            rhs /= piv[:, None]
            out[bc] = rhs
        elif br.size:
            own = np.nonzero((eb == i) & (cblock[cols] == i))[0]
            dense = np.zeros((br.size, br.size))
            clocal = np.empty(m, dtype=np.intp)
            clocal[bc] = np.arange(bc.size)
            dense[local[rows[own]], clocal[cols[own]]] = vals[own]
            try:
                out[bc] = np.linalg.inv(dense) @ rhs
            except np.linalg.LinAlgError as exc:
                raise ContractViolation(_SINGULAR) from exc
    return kernel[0].size


class _Revised:
    """Revised simplex state over the columns of `cols` plus one artificial
    unit column per row (index n + i): the basis, its inverse, the basic
    values, the reduced costs and the steepest-edge weights 1 + |B^-1 a_j|^2
    of the structural and slack columns.

    The inverse is kept as a stale explicit inverse and up to `_BLOCK`
    pending rank-1 updates: B^-1 = Binv0 - U[:, :k] @ V[:k]. Reads apply the
    correction; `flush` folds the pending pairs into Binv0 as one matrix
    product. Nothing outside this class reads Binv0."""

    def __init__(self, cols: _Columns, rhs: np.ndarray):
        m = cols.m
        self.cols = cols
        self.basis = cols.n + np.arange(m)           # all-artificial start, B = I
        self.Binv0 = np.eye(m)
        self.U, self.V = np.empty((m, _BLOCK)), np.empty((_BLOCK, m))
        self.k = 0                                   # pending update pairs
        self.rhs = rhs.copy()                        # x_B = B^-1 rhs at a refactor
        self.x = rhs.copy()
        self.gamma = 1.0 + np.bincount(cols.cols, weights=cols.vals ** 2, minlength=cols.n)
        self.since_refactor = 0
        self.bland_activations = 0

    def set_cost(self, cost: np.ndarray) -> None:
        """Cost over structural, slack and artificial columns; resets the
        reduced costs and the (negated) objective value."""
        self.cost = cost
        self.price()
        self.negobj = -float(cost[self.basis] @ self.x)

    def set_rhs(self, rhs: np.ndarray) -> None:
        """Basic values x_B = B^-1 rhs for a new right-hand side."""
        self.flush()
        self.rhs = rhs.copy()
        self.x = self.Binv0 @ rhs

    def price(self) -> None:
        self.flush()
        y = self.Binv0.T @ self.cost[self.basis]
        self.d = self.cost[:self.cols.n] - self.cols.tdot(y)
        self.d[self.basis[self.basis < self.cols.n]] = 0.0

    def row(self, r: int) -> np.ndarray:
        """Row r of B^-1."""
        k = self.k
        return self.Binv0[r] - self.U[r, :k] @ self.V[:k]

    def ftran(self, q: int) -> np.ndarray:
        """alpha_q = B^-1 a_q."""
        rows, vals = self.cols.col(q)
        k = self.k
        return self.Binv0[:, rows] @ vals - self.U[:, :k] @ (self.V[:k, rows] @ vals)

    def btran(self, v: np.ndarray) -> np.ndarray:
        """v' B^-1."""
        k = self.k
        return v @ self.Binv0 - (v @ self.U[:, :k]) @ self.V[:k]

    def flush(self) -> None:
        """Fold the pending update pairs into the explicit inverse: one
        BLAS-3 product in place of k rank-1 passes over it."""
        k = self.k
        if k:
            self.Binv0 -= self.U[:, :k] @ self.V[:k]
            self.k = 0

    def pivot(self, r: int, q: int, alpha: np.ndarray,
              brow: np.ndarray | None = None, prow: np.ndarray | None = None) -> None:
        """Column q enters the basis in position r; alpha = B^-1 a_q. A caller
        that already holds row r of B^-1 (`brow`) and of B^-1 A (`prow`)
        passes them in."""
        n = self.cols.n
        piv = alpha[r]
        if brow is None:
            brow = self.row(r)
            prow = self.cols.tdot(brow)
        ratio = prow / piv                                  # pivot row / pivot
        # Goldfarb-Reid update of the weights, from the old inverse
        gq = 1.0 + float(alpha @ alpha)
        tau = self.cols.tdot(self.btran(alpha))             # a_j' B^-T alpha_q
        g = self.gamma
        g -= ratio * (2.0 * tau - gq * ratio)
        np.maximum(g, 1.0 + ratio * ratio, out=g)
        dq = self.d[q]
        self.d -= dq * ratio
        leaving = self.basis[r]
        if leaving < n:
            g[leaving] = max(gq / (piv * piv), 1.0)
        theta = self.x[r] / piv
        self.x -= theta * alpha
        self.x[r] = theta
        self.negobj -= dq * theta
        # product-form update B^-1 <- B^-1 - (alpha - e_r)(row r of B^-1)/piv,
        # held back as a pending pair until `_BLOCK` of them are flushed
        k = self.k
        self.U[:, k] = alpha
        self.U[r, k] -= 1.0
        np.divide(brow, piv, out=self.V[k])
        self.k = k + 1
        if self.k == _BLOCK:
            self.flush()
        self.basis[r] = q
        self.d[self.basis[self.basis < n]] = 0.0
        self.since_refactor += 1
        if self.since_refactor >= _REFACTOR_EVERY:
            self.refactor()

    def refactor(self) -> None:
        """Fresh inverse of the basis columns; basic values and reduced costs
        recomputed from it."""
        _peeled_inverse(*self.cols.entries(self.basis), self.Binv0)
        self.k = 0
        self.x = self.Binv0 @ self.rhs
        self.price()
        self.since_refactor = 0

    def keep_rows(self, keep: np.ndarray) -> None:
        """Drop rows whose artificial stays basic with a zero pivot row: with
        those rows and their artificials gone, the inverse of the remaining
        basis is the kept block of B^-1, and no weight changes."""
        self.flush()
        self.Binv0 = self.Binv0[np.ix_(keep, keep)]
        m = self.Binv0.shape[0]
        self.U, self.V = np.empty((m, _BLOCK)), np.empty((_BLOCK, m))
        self.x, self.rhs, self.basis = self.x[keep], self.rhs[keep], self.basis[keep]
        self.cols = self.cols.keep_rows(keep)


def _run_simplex(st: _Revised) -> int:
    """Minimize st.cost over the structural and slack columns (artificials
    never enter); returns the pivot count. Raises on unboundedness."""
    m, ncols = len(st.x), st.cols.n
    iters = 0
    stall = 0
    bland = False
    last_obj = st.negobj
    while True:
        red = st.d
        if bland:
            cand = np.nonzero(red < -_TOL)[0]
            if cand.size == 0:
                return iters
            col = int(cand[0])
        else:
            if red.min() >= -_TOL:
                return iters
            # price by reduced cost per unit step length (steepest edge):
            # plain most-negative pricing stalls badly on degenerate fleet LPs
            col = int(np.argmin(red / np.sqrt(st.gamma)))
        alpha = st.ftran(col)
        ratios = np.full(m, np.inf)
        pos = alpha > _TOL
        ratios[pos] = st.x[pos] / alpha[pos]
        row = int(np.argmin(ratios))
        if not np.isfinite(ratios[row]):
            raise LpUnbounded("objective unbounded along entering column")
        minr = ratios[row]
        ties = np.nonzero(ratios <= minr + _TOL)[0]
        if bland:
            # least-index leaving variable among minimal ratios
            row = int(ties[np.argmin(st.basis[ties])])
        elif ties.size > 1:
            # break degenerate ties on the largest pivot element for stability
            row = int(ties[np.argmax(np.abs(alpha[ties]))])
        st.pivot(row, col, alpha)
        iters += 1
        # negobj holds the negated objective value, so progress on the
        # minimization shows up as an increase here
        if st.negobj > last_obj + _TOL:
            last_obj = st.negobj
            stall = 0
            bland = False          # degenerate vertex escaped; back to steepest edge
        else:
            stall += 1
            if stall > _STALL_LIMIT and not bland:
                bland = True
                st.bland_activations += 1
        if iters > 50000 + 50 * (m + ncols):
            raise ContractViolation("simplex iteration limit exceeded")


def solve(problem: LpProblem) -> LpSolution:
    """Two-phase simplex. Raises LpInfeasible / LpUnbounded."""
    try:
        return _solve(problem, perturb=True)
    except ContractViolation:
        # rare: the anti-degeneracy perturbation landed on a basis that does
        # not restore cleanly; redo the exact (slower) run before giving up
        return _solve(problem, perturb=False)


def _solve(problem: LpProblem, perturb: bool) -> LpSolution:
    m, n = problem.shape
    sign = -1.0 if problem.maximize else 1.0
    c = sign * problem.objective                      # minimize internally

    # standard form: rows with b < 0 negated, then slack (<=) / surplus (>=)
    # columns appended after A's sparse columns
    flip = np.where(problem.b < 0, -1.0, 1.0)
    b = flip * problem.b
    swap = {"<=": ">=", ">=": "<=", "=": "="}
    senses = [swap[s] if f < 0 else s for s, f in zip(problem.senses, flip)]
    cols = _Columns.standard_form(problem, flip, senses)
    n_std = cols.n
    c_std = np.concatenate([c, np.zeros(n_std - n)])
    bscale = max(1.0, float(b.max(initial=0.0)))
    # deterministic positive jitter of the basic values: fleet LPs have mostly
    # zero right-hand sides, and untreated they stall on degenerate pivots
    # for tens of thousands of iterations; with every basic variable
    # strictly positive each pivot makes real progress.  The exact solution is
    # recovered from the final basis afterwards.
    rng = np.random.default_rng(181201)
    eps = 1e-7 * bscale * rng.uniform(0.5, 1.5, size=m) if perturb else np.zeros(m)

    # phase 1 from the artificial basis: minimize the artificials' sum
    st = _Revised(cols, b + eps)
    st.set_cost(np.concatenate([np.zeros(n_std), np.ones(m)]))
    it1 = _run_simplex(st)                   # artificials never re-enter
    if st.negobj < -(_FEAS_TOL * bscale + 1e3 * eps.sum()):
        if perturb:
            # jittering equality right-hand sides can make a feasible system
            # inconsistent; only the exact run may declare infeasibility
            raise ContractViolation("perturbed phase 1 ended infeasible")
        raise LpInfeasible(f"{problem.name}: phase-1 objective {-st.negobj:.3e} > 0")
    # a residual phase-1 objective within the inconsistency budget of the
    # jitter is fine: the exact restoration below checks the true artificial
    # mass against the unperturbed right-hand side
    if perturb:
        # restore the true right-hand side through the basis inverse
        st.set_rhs(b)
        art = st.basis >= n_std
        art_mass = float(np.abs(st.x[art]).sum()) if art.any() else 0.0
        if art_mass > _FEAS_TOL * bscale:
            # borderline: cannot distinguish infeasibility from perturbation
            # damage here; the exact retry settles it
            raise ContractViolation(
                f"{problem.name}: artificial mass {art_mass:.3e} after phase 1")
        if st.x.min(initial=0.0) < -_FEAS_TOL * bscale:
            raise ContractViolation(f"{problem.name}: basis lost feasibility")
        np.clip(st.x, 0.0, None, out=st.x)

    # drive any residual artificials out of the basis; drop redundant rows
    keep_rows = np.ones(m, dtype=bool)
    drive_out = 0
    for i in range(m):
        if st.basis[i] >= n_std:
            brow = st.row(i)
            prow = cols.tdot(brow)
            cand = np.nonzero(np.abs(prow) > _TOL)[0]
            if cand.size:
                q = int(cand[0])
                st.pivot(i, q, st.ftran(q), brow, prow)
                drive_out += 1
            else:
                keep_rows[i] = False
    if not keep_rows.all():
        st.keep_rows(keep_rows)

    # phase 2 from the same basis, fresh jitter of the basic values
    if perturb:
        st.x += 1e-7 * bscale * rng.uniform(0.5, 1.5, size=len(st.x))
        st.rhs = st.cols.dense(st.basis) @ st.x
    st.set_cost(np.concatenate([c_std, np.zeros(m)]))
    it2 = _run_simplex(st)
    basis, kept_cols, bland = st.basis, st.cols, st.bland_activations
    del st                                   # frees the m x m inverse before the solves

    # exact solution and duals from the final basis: B x_B = b, B' y = c_B
    rows_kept = np.nonzero(keep_rows)[0]
    B = kept_cols.dense(basis)
    x_basic = np.linalg.solve(B, b[rows_kept])
    if x_basic.min(initial=0.0) < -_FEAS_TOL * bscale:
        raise ContractViolation(
            f"{problem.name}: basic value {x_basic.min():.3e} negative at optimum")
    x_std = np.zeros(n_std)
    x_std[basis] = np.maximum(x_basic, 0.0)
    x = x_std[:n]
    obj = float(problem.objective @ x)

    y = np.zeros(m)
    y[rows_kept] = np.linalg.solve(B.T, c_std[basis])
    rc_std = c_std - cols.tdot(y)

    _certify(problem, flip, b, senses, x_std, y, rc_std, n)

    # map the duals back to the user's rows and objective sense
    duals = sign * flip * y
    return LpSolution(x, obj, duals, it1 + it2,
                      phase1_pivots=it1, phase2_pivots=it2,
                      drive_out_pivots=drive_out,
                      bland_activations=bland,
                      exact_retry=not perturb)


def _certify(problem: LpProblem, flip, b_flip, senses, x_std, y, rc_std, n) -> None:
    """Independent optimality certificate on the standard-form system, whose
    rows are the problem's rows times ``flip``: primal feasibility, dual
    feasibility, and complementary slackness."""
    tol = 1e-8                      # primal residual and sign, relative to ``scale``
    x = x_std[:n]
    scale = max(1.0, float(np.abs(b_flip).max(initial=0.0)),
                float(np.abs(x).max(initial=0.0)))
    ax = problem.dot(x)
    res = problem.violations(ax)
    if res.max(initial=0.0) > tol * scale:
        raise ContractViolation(
            f"{problem.name}: primal residual {res.max():.3e} exceeds tolerance")
    if (x < -tol * scale).any():
        raise ContractViolation(f"{problem.name}: negative variable in solution")
    cscale = max(1.0, float(np.abs(rc_std).max(initial=0.0)))
    if rc_std.min(initial=0.0) < -1e-7 * cscale:
        raise ContractViolation(
            f"{problem.name}: dual infeasibility {rc_std.min():.3e}")
    if np.abs(rc_std * x_std).max(initial=0.0) > 1e-6 * scale * cscale:
        raise ContractViolation(f"{problem.name}: complementary slackness violated")
    ax = flip * ax                           # sign flips are exact
    senses = np.array(senses, dtype="U2")
    prod = y * np.where(senses == "<=", b_flip - ax, ax - b_flip)
    bad = (senses != "=") & (np.abs(prod) > 1e-6 * scale * np.maximum(1.0, np.abs(y)))
    if bad.any():
        i = int(np.argmax(bad))
        raise ContractViolation(
            f"{problem.name}: dual-slack product {prod[i]:.3e} at row {i}")


# -- MPS export ----------------------------------------------------------------


def export_mps(problem: LpProblem, path) -> None:
    """Fixed-format MPS with index-mangled names (<= 8 characters)."""
    m, n = problem.shape
    rname = [f"R{i:07d}" for i in range(m)]
    cname = [f"C{j:07d}" for j in range(n)]
    sense_code = {"<=": "L", "=": "E", ">=": "G"}
    lines = [f"NAME          {problem.name[:8].upper():<8}", "ROWS", " N  COST"]
    for i in range(m):
        lines.append(f" {sense_code[problem.senses[i]]}  {rname[i]}")
    lines.append("COLUMNS")
    sign = -1.0 if problem.maximize else 1.0        # MPS minimizes by convention
    for j in range(n):
        entries = []
        if problem.objective[j] != 0.0:
            entries.append(("COST", sign * problem.objective[j]))
        lo, hi = problem.colptr[j], problem.colptr[j + 1]
        entries += [(rname[i], v) for i, v in zip(problem.rowind[lo:hi], problem.values[lo:hi])]
        for k in range(0, len(entries), 2):
            pair = entries[k:k + 2]
            row = f"    {cname[j]:<8}  "
            row += "   ".join(f"{rn:<8}  {val:.12G}" for rn, val in pair)
            lines.append(row)
    lines.append("RHS")
    for i in range(m):
        if problem.b[i] != 0.0:
            lines.append(f"    RHS       {rname[i]:<8}  {problem.b[i]:.12G}")
    lines.append("BOUNDS")
    lines.append("ENDATA")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
