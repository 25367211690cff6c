"""The vectorized sweep must be indistinguishable from the object-level path.

These tests compare full grids point by point across primes, depths and
families, including negative j, so any divergence between the two
implementations of the oracle computation fails loudly here (beyond the
in-run cross-checks the sweep already performs).
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from hopforders import _batch, families
from hopforders.cli import main
from hopforders.families import (Family, OrderRecord, _record_from_row,
                                 alpha_p2_loose_predicate, enumerate_orders,
                                 oracle_check_family, oracle_is_order, predicate)
from hopforders.fields import FieldSpec
from hopforders.matrix import Mat

from helpers import F2, F3, F4, F5, F8, F9, F25, brute_force_points

F7 = FieldSpec(7)

MATRIX_FAMILIES = [Family.ALPHA_P_N, Family.ALPHA_P2, Family.ZP_X_AP,
                   Family.ZP_SQUARED, Family.MONO_P2]

FORMS = {predicate: families._closed_form,
         alpha_p2_loose_predicate: families._loose_closed_form}

B_INTS = {
    Family.ALPHA_P_N: [[0, 0], [0, 0]],
    Family.ALPHA_P2: [[0, 1], [0, 0]],
    Family.ZP_X_AP: [[1, 0], [0, 0]],
    Family.ZP_SQUARED: [[1, 0], [0, 1]],
    Family.MONO_P2: [[0, 1], [1, 0]],
}


@pytest.mark.parametrize("spec", [F2, F3, F5, F7, F4, F8, F9, F25])
@pytest.mark.parametrize("family", MATRIX_FAMILIES)
def test_full_grid_oracle_equivalence(spec, family):
    p = spec.p
    cases = [(1 if spec is F25 else 3 if spec.q in (2, 4) else 2, (-1, 0, 2, 5))]
    if spec is F3:
        cases.append((3, (-3, -1)))     # negative i at depth 3
    for depth, i_values in cases:
        for i in i_values:
            for j in (-2, 0, 1, 3):
                grid = _batch.CellGrid(spec, i, j, depth, range(spec.q ** depth))
                fast = _batch.oracle_verdicts(grid, B_INTS[family])
                for row in range(grid.n):       # row 0, theta = 0, is the T^j record
                    rec = _record_from_row(family, spec, row, i, j, depth)
                    assert oracle_is_order(rec) == bool(fast[row]), rec.to_json()
                if family is Family.ZP_SQUARED and (i < 0 or j < 0):
                    assert not fast.any()       # the cells the sweep skips hold no order


@pytest.mark.parametrize("spec", [F2, F3, F4, F8, F9, F25])
@pytest.mark.parametrize("family", MATRIX_FAMILIES)
def test_full_grid_predicate_twin_equivalence(spec, family):
    """Each closed form, run on a whole grid, gives the verdict it gives on
    each row's record, row 0 (theta = 0) included: that is the T^j record."""
    depth = 1 if spec is F25 else 3 if spec.q in (2, 4) else 2
    preds = [predicate] + ([alpha_p2_loose_predicate] if family is Family.ALPHA_P2 else [])
    for i in (-1, 0, 1, 4):
        for j in (-2, 0, 2):
            if family is Family.ZP_SQUARED and (i < 0 or j < 0):
                continue
            grid = _batch.CellGrid(spec, i, j, depth, range(spec.q ** depth))

            def record(row):
                return _record_from_row(family, spec, row, i, j, depth)

            for pred in preds:
                column = families._predicate_column(grid, family, FORMS[pred])
                assert len(column) == grid.n
                for row in range(grid.n):
                    assert pred(record(row)) == bool(column[row]), record(row).to_json()


@pytest.mark.parametrize("spec, depth", [(F3, 8), (F2, 13)])
@pytest.mark.parametrize("family", MATRIX_FAMILIES)
def test_blocks_across_a_boundary_match_one_grid(spec, depth, family):
    """A cell decided in blocks of KERNEL_ROWS rows, the last one partial
    over F_3 (3^8 = 6561 rows), gives the verdicts of one grid of all its
    rows; the oracle agrees on each side of the block boundary, and the
    closed form's blocks agree with `predicate` on every row."""
    n, size, i, j = spec.q ** depth, families.KERNEL_ROWS, 2, 2
    blocks = [_batch.CellGrid(spec, i, j, depth, range(s, min(s + size, n)))
              for s in range(0, n, size)]
    assert size == 4096 and len(blocks) == 2 and blocks[-1].n == n - size
    B = B_INTS[family]
    whole = _batch.oracle_verdicts(_batch.CellGrid(spec, i, j, depth, range(n)), B)
    fast = np.concatenate([_batch.oracle_verdicts(g, B) for g in blocks])
    assert np.array_equal(fast, whole)

    def record(row):
        return _record_from_row(family, spec, row, i, j, depth)

    for row in (0, size - 1, size, n - 1):
        assert oracle_is_order(record(row)) == bool(fast[row]), record(row).to_json()
    column = np.concatenate([families._predicate_column(g, family, families._closed_form)
                             for g in blocks])
    assert [predicate(record(row)) for row in range(n)] == column.tolist()


# SHA-256 of the --json stdout of mono_p2 over F_3 at i, j in -1..1 and depth
# 9: 3^9 = 19683 rows per cell, five blocks, the last one partial
BLOCK_DIGESTS = {
    "oracle-check": "6a6c062812720cf9d37bb9acc085038fdd85a65b347f567c2d2cfcd452317acf",
    "enumerate": "a4ac9cbd0d7a09caa06254b9bc86e4135457acb14405c200afd8eb0ea61b9759",
}


@pytest.mark.parametrize("command", sorted(BLOCK_DIGESTS))
def test_multi_block_sweep_json_bytes_are_pinned(command, capsys):
    assert main([command, "--family", "mono_p2", "--field", "p=3",
                 "--i=-1..1", "--j=-1..1", "--depth", "9", "--json"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == BLOCK_DIGESTS[command]


def test_sweep_memory_does_not_grow_with_depth():
    """A cell of 2^16 rows is decided in blocks: after a warm-up sweep, the
    peak of traced allocations stays far below what the whole cell's columns
    and products would take."""
    enumerate_orders(Family.MONO_P2, F2, [1], [1], depth=4)
    tracemalloc.start()
    try:
        enumerate_orders(Family.MONO_P2, F2, [1], [1], depth=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak


def test_grid_valuations_match_records():
    grid = _batch.CellGrid(F3, 0, 1, 3, range(27))
    for row in range(1, grid.n):
        rec = _record_from_row(Family.ALPHA_P_N, F3, row, 0, 1, 3)
        assert rec.theta.val == int(grid.theta.val[row])
    assert grid.theta.val[0] == _batch.BIG


def test_enumerate_batch_matches_generic():
    for family in MATRIX_FAMILIES:
        fast = enumerate_orders(family, F2, range(-1, 3), range(-1, 3), depth=3)
        slow = sorted((r for r, orc, _ in brute_force_points(
            family, F2, range(-1, 3), range(-1, 3), 3) if orc),
            key=OrderRecord.sort_key)
        assert fast == slow


def test_report_batch_matches_generic_with_disagreements():
    fast = oracle_check_family(Family.ALPHA_P2, F2, range(0, 3), range(0, 3),
                               depth=3, predicate_fn=alpha_p2_loose_predicate)
    slow = brute_force_points(Family.ALPHA_P2, F2, range(0, 3), range(0, 3), 3,
                              alpha_p2_loose_predicate)
    assert fast.total == len(slow)
    assert fast.agreements == sum(orc == prd for _, orc, prd in slow)
    assert [d.record for d in fast.disagreements] == [r for r, orc, prd in slow if orc != prd]


def test_extension_field_sweeps_agree():
    F9 = FieldSpec(3, 2, (1, 0, 1))
    for family in (Family.ZP_SQUARED, Family.MONO_P2):
        report = oracle_check_family(family, F4, range(0, 3), range(0, 2), depth=2)
        assert report.all_agree, report.summary()
        assert report.total == 3 * 2 * 4 ** 2
    report = oracle_check_family(Family.ZP_X_AP, F9, range(0, 2), range(-1, 2), depth=1)
    assert report.all_agree, report.summary()


def test_sweeps_at_the_max_q_edge():
    """Depth-1 cells over fields of MAX_Q size: code products near 2^32 keep
    their int64 headroom, and the extension field's tables index right."""
    report = oracle_check_family(Family.MONO_P2, FieldSpec(65521), [0], [0], depth=1)
    assert report.all_agree and report.total == 65521
    F2_16 = FieldSpec(2, 16, (1, 0, 1, 1, 0, 1) + (0,) * 10 + (1,))
    for family in MATRIX_FAMILIES[1:]:
        report = oracle_check_family(family, F2_16, [0], [0], depth=1)
        assert report.all_agree and report.total == 2 ** 16, report.summary()


def test_family_matrix_is_the_one_preset_table():
    """Family is exactly the five presets, and family_matrix gives each B."""
    assert set(Family) == set(B_INTS)
    for family in Family:
        assert families.family_matrix(family, F2) == Mat.from_ints(F2, B_INTS[family])


def test_mono_p2_column_skips_the_twist_when_pj_below_i(monkeypatch):
    """A grid cell with p*j < i fails on every row: its closed-form column is
    decided without theta^(p)."""
    def no_twist(self):
        raise AssertionError("theta^(p) built for a cell whose bound fails")
    monkeypatch.setattr(_batch.Laurent, "pth_power", no_twist)
    grid = _batch.CellGrid(F3, 4, 1, 3, range(27))
    column = families._predicate_column(grid, Family.MONO_P2, families._closed_form)
    assert column.shape == (27,) and not column.any()


def _count_calls(monkeypatch, owner, name, fn=None):
    calls = []
    fn = fn or getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)
    monkeypatch.setattr(owner, name, counted)
    return calls


def test_cross_check_policy_call_counts(monkeypatch):
    # The closed form stands in for the oracle, which it matches on every
    # grid tested here, so a 4095-row cell costs milliseconds; only the
    # number of calls matters.
    calls = _count_calls(monkeypatch, families, "oracle_is_order", predicate)
    for depth, expected in ((12, 4095), (13, 64)):     # 2^12 - 1 <= 4096 < 2^13 - 1
        calls.clear()
        report = oracle_check_family(Family.ALPHA_P2, F2, [3], [2], depth=depth)
        assert report.all_agree and report.total == 2 ** depth
        assert len(calls) == expected + 1               # plus the T^j record
    calls.clear()
    records = enumerate_orders(Family.ALPHA_P2, F2, [3], [2], depth=13)
    assert records and len(calls) == 16 + 1
    for depth, expected in ((6, 4095), (8, 64)):       # 4^6 - 1 <= 4096 < 4^8 - 1
        calls.clear()
        report = oracle_check_family(Family.ALPHA_P2, F4, [3], [2], depth=depth)
        assert report.all_agree and report.total == 4 ** depth
        assert len(calls) == expected + 1
    calls.clear()
    records = enumerate_orders(Family.ALPHA_P2, F4, [3], [2], depth=8)
    assert records and len(calls) == 16 + 1


@pytest.mark.parametrize("spec", [F2, F3, F4, F9])
def test_kernel_runs_on_every_field(monkeypatch, spec):
    grids = _count_calls(monkeypatch, _batch, "CellGrid")
    oracle_check_family(Family.MONO_P2, spec, [0, 1], [0], depth=2)
    enumerate_orders(Family.MONO_P2, spec, [0, 1], [0], depth=2)
    assert len(grids) == 4
