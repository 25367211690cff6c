"""Vectorized exact sweeps over the (i, j, theta) grid, for prime fields.

Large enumerations evaluate the integrality condition at up to p^depth
candidate thetas per (i, j) cell.  Running every point through the
object-level matrix pipeline is far too slow in CPython, so this module
performs the same computation batched: a scalar is a Laurent polynomial in T
over F_p holding one int64 coefficient column per sweep point (a plain int
stands for a constant column), every product and sum is reduced mod p on the
spot, and the 2x2 pipeline below is the generic A = Theta^{-1} B Theta^(p)
specialized to Theta = [[T^i, 0], [theta, T^j]]:

    det Theta = T^(i+j),  adj Theta = [[T^j, 0], [-theta, T^i]],
    A integral  <=>  adj(Theta) @ B @ Theta^(p) has no coefficient below T^(i+j).

All arithmetic is integer arithmetic mod p, hence exact.  Callers
(families.oracle_check_family / enumerate_orders) cross-check these verdicts
against the object-level oracle, exhaustively on small cells and on seeded
samples of large ones; any mismatch raises.

Only k = 1 coefficient fields are supported here; extension fields fall back
to the object-level path in the callers.
"""

from __future__ import annotations

import numpy as np

BIG = 1 << 40  # stand-in for +infinity in integer valuation arrays


class CellGrid:
    """All nonzero theta candidates supported on exponents [j-depth, j-1].

    Row r of the grid encodes theta = sum_d cols[d][r] * T^(exps[d]), the
    base-p digits of r; row 0 is the zero theta and is skipped by callers.
    """

    __slots__ = ("p", "i", "j", "depth", "n", "exps", "cols", "v_theta")

    def __init__(self, p: int, i: int, j: int, depth: int):
        n = p ** depth
        base = np.arange(n, dtype=np.int64)
        cols = [(base // p ** d) % p for d in range(depth)]
        exps = [j - depth + d for d in range(depth)]
        v = np.full(n, BIG, dtype=np.int64)
        for e, col in zip(exps, cols):
            newly = (v == BIG) & (col != 0)
            v[newly] = e
        self.p, self.i, self.j, self.depth = p, i, j, depth
        self.n = n
        self.exps = exps
        self.cols = cols
        self.v_theta = v

    def theta_scalar(self) -> dict:
        return {e: c for e, c in zip(self.exps, self.cols)}


# -- batch Laurent scalars: {exponent: int64 column or int}, None = zero --

def _mul(x, y, p):
    if x is None or y is None:
        return None
    out: dict = {}
    for e1, v1 in x.items():
        for e2, v2 in y.items():
            e = e1 + e2
            prod = (v1 * v2) % p
            acc = out.get(e)
            out[e] = prod if acc is None else (acc + prod) % p
    return out


def _add(x, y, p):
    if x is None:
        return y
    if y is None:
        return x
    out = dict(x)
    for e, v in y.items():
        acc = out.get(e)
        out[e] = v if acc is None else (acc + v) % p
    return out


def _neg(x, p):
    if x is None:
        return None
    return {e: (-v) % p for e, v in x.items()}


def _sub(x, y, p):
    return _add(x, _neg(y, p), p)


def _matmul(x, y, p):
    out = [[None, None], [None, None]]
    for r in range(2):
        for c in range(2):
            acc = None
            for t in range(2):
                acc = _add(acc, _mul(x[r][t], y[t][c], p), p)
            out[r][c] = acc
    return out


def _valuations(x, n: int) -> np.ndarray:
    """Per-row minimal exponent carrying a nonzero coefficient; BIG if none."""
    val = np.full(n, BIG, dtype=np.int64)
    if x is None:
        return val
    for e in sorted(x):
        arr = np.broadcast_to(np.asarray(x[e]), (n,))
        newly = (val == BIG) & (arr != 0)
        val[newly] = e
    return val


def oracle_verdicts(grid: CellGrid, b01: list[list[int]]) -> np.ndarray:
    """Integrality of Theta^{-1} B Theta^(p) per theta row (row 0 meaningless)."""
    p, i, j = grid.p, grid.i, grid.j
    theta = grid.theta_scalar()
    # theta^p: coefficient Frobenius is the identity on F_p, exponents scale by p
    theta_p = {p * e: c for e, c in zip(grid.exps, grid.cols)}
    adj = [[{j: 1}, None], [_neg(theta, p), {i: 1}]]
    tw = [[{p * i: 1}, None], [theta_p, {p * j: 1}]]
    bm = [[{0: 1} if b01[r][c] else None for c in range(2)] for r in range(2)]
    numerator = _matmul(adj, _matmul(bm, tw, p), p)
    cut = i + j  # dividing by det = T^(i+j)
    ok = np.ones(grid.n, dtype=bool)
    for r in range(2):
        for c in range(2):
            entry = numerator[r][c]
            if entry is None:
                continue
            for e, v in entry.items():
                if e >= cut:
                    continue
                if isinstance(v, np.ndarray):
                    ok &= v == 0
                elif v % p:
                    ok[:] = False
    return ok


def predicate_verdicts(grid: CellGrid, family: str) -> np.ndarray:
    """Vectorized twins of the closed-form membership predicates."""
    p, i, j, n = grid.p, grid.i, grid.j, grid.n
    v = grid.v_theta
    if family == "alpha_p_n":
        return np.ones(n, dtype=bool)
    if family == "alpha_p2":
        return (p * j >= i) & (p * v >= i) & ((p + 1) * v >= i + j)
    if family == "zp_x_ap":
        return (i >= 0) & (v >= j - (p - 1) * i)
    if family == "zp_squared":
        if i < 0 or j < 0:
            return np.zeros(n, dtype=bool)
        theta_p = {p * e: c for e, c in zip(grid.exps, grid.cols)}
        shifted = {e + (p - 1) * i: c for e, c in zip(grid.exps, grid.cols)}
        return _valuations(_sub(theta_p, shifted, p), n) >= j
    if family == "mono_p2":
        theta = grid.theta_scalar()
        theta_p = {p * e: c for e, c in zip(grid.exps, grid.cols)}
        diff = _sub({(p + 1) * i: 1}, _mul(theta_p, theta, p), p)
        base = (p * j >= i) & (p * v >= i)
        return base & (_valuations(diff, n) >= i + j)
    raise ValueError(f"no vectorized predicate for family {family!r}")


def loose_alpha_p2_verdicts(grid: CellGrid) -> np.ndarray:
    """The single-lower-bound variant kept for agreement-report regressions."""
    p, i, j = grid.p, grid.i, grid.j
    return (p * j >= i) & (grid.v_theta >= i - (p - 1) * j)
