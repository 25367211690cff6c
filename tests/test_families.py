import hashlib
import itertools
import json
import random
import time
import tracemalloc

import pytest

from hopforders.families import (MAX_SWEEP_CELLS, MAX_SWEEP_POINTS,
                                 Family, OrderRecord, _family_form, _quotient, _record_form,
                                 _record_from_row, _witness, alpha_p2_loose_predicate,
                                 canonical_theta,
                                 default_depth, enumerate_orders, family_matrix,
                                 oracle_check_family, oracle_is_order, predicate,
                                 rank1_orders, theta_for_record)
from hopforders.fields import FieldSpec
from hopforders.matrix import Mat
from hopforders.orders import NotIntegralError, _integral_quotient, order_from_theta, same_order
from hopforders.parse import MAX_DEGREE
from hopforders.ratfunc import Poly, RatFunc

from helpers import (F2, F3, F4, F5, F9, brute_force_points, pi, rand_nonzero_ratfunc,
                     reference_order)


def rec(family, spec, i, j, theta):
    return OrderRecord.make(family, i, j, theta)


def one(spec):
    return RatFunc.one(spec)


# -- family matrices --

def test_family_matrices():
    assert family_matrix(Family.ALPHA_P_N, F2) == Mat.zeros(F2, 2)
    assert family_matrix(Family.ZP_SQUARED, F3) == Mat.identity(F3, 2)
    assert family_matrix(Family.ALPHA_P2, F2) == Mat.from_ints(F2, [[0, 1], [0, 0]])
    assert family_matrix(Family.ZP_X_AP, F2) == Mat.from_ints(F2, [[1, 0], [0, 0]])
    assert family_matrix(Family.MONO_P2, F3) == Mat.from_ints(F3, [[0, 1], [1, 0]])


# -- canonical records --

def test_canonical_theta_at_boundary():
    assert canonical_theta(pi(F2, 2), 2) == pi(F2, 2)
    # v(theta) = j: every unit multiple collapses to T^j
    theta = pi(F3, 1) + pi(F3, 2)
    assert canonical_theta(theta, 1) == pi(F3, 1)


def test_canonical_theta_truncates_series():
    # 1/(1+T) = 1 + T + T^2 + ... over F_2; truncated below T^3
    theta = one(F2) / (one(F2) + pi(F2))
    assert canonical_theta(theta, 3) == RatFunc.from_poly(Poly.from_ints(F2, [1, 1, 1]))


def test_canonical_theta_is_the_truncated_series():
    """For every theta, general denominators included, canonical_theta is the
    Laurent polynomial on [v(theta), j) that agrees with theta below T^j."""
    rng = random.Random(30)
    for spec in (F2, F3, F4, F9):
        for _ in range(60):
            theta = rand_nonzero_ratfunc(rng, spec, 4) * pi(spec, rng.randrange(-3, 4))
            j = int(theta.val) + rng.randrange(1, 40)
            canon = canonical_theta(theta, j)
            assert (theta - canon).val >= j
            assert canon.den.codes == Poly.monomial(spec, max(0, -int(theta.val))).codes
            assert canon.val == theta.val and canon.num.degree - canon.den.degree < j


def test_canonical_theta_laurent():
    theta = pi(F2, -2) + pi(F2, 5)
    assert canonical_theta(theta, 1) == pi(F2, -2)
    assert canonical_theta(theta, 6) == theta


def test_canonical_theta_rejects_dominance_violation():
    with pytest.raises(ValueError):
        canonical_theta(pi(F2, 3), 2)
    with pytest.raises(ValueError):
        canonical_theta(RatFunc.zero(F2), 2)


def test_record_validation():
    r = rec(Family.ALPHA_P2, F2, 2, 1, pi(F2))
    assert r.theta == pi(F2)
    with pytest.raises(ValueError, match=r"v\(theta\) <= j = 1, got v = 2$"):
        OrderRecord(Family.ALPHA_P2, 2, 0, 1, pi(F2, 2))       # v > j
    with pytest.raises(ValueError, match=r"v\(theta\) <= j = 1, got v = inf$"):
        OrderRecord(Family.ALPHA_P2, 2, 0, 1, RatFunc.zero(F2))
    with pytest.raises(ValueError):
        OrderRecord(Family.ALPHA_P2, 2, 0, 3,
                    one(F2) / (one(F2) + pi(F2)))              # not truncated
    with pytest.raises(ValueError):
        OrderRecord(Family.ALPHA_P2, 3, 0, 1, one(F2))         # wrong p
    made = OrderRecord.make(Family.ALPHA_P2, 0, 3, one(F2) / (one(F2) + pi(F2)))
    assert made.theta == RatFunc.from_poly(Poly.from_ints(F2, [1, 1, 1]))
    # a Laurent polynomial's series ends with its numerator, whatever j is
    assert OrderRecord(Family.ALPHA_P2, 2, 0, 10 ** 12, one(F2) + pi(F2)).theta.val == 0


def test_canonical_truncation_of_a_series_is_bounded():
    """A theta whose series never ends is truncated to at most MAX_DEGREE
    terms; past that, make and the constructor refuse it at once."""
    import time
    theta = one(F2) / (one(F2) + pi(F2))                       # 1 + T + T^2 + ...
    made = OrderRecord.make(Family.ALPHA_P2, 0, MAX_DEGREE, theta)
    assert made.theta == RatFunc.from_poly(Poly.from_ints(F2, [1] * MAX_DEGREE))
    with pytest.raises(ValueError, match="not in canonical"):
        OrderRecord(Family.ALPHA_P2, 2, 0, MAX_DEGREE, theta)
    for j in (MAX_DEGREE + 1, 10 ** 9):
        for build in (lambda: OrderRecord.make(Family.ALPHA_P2, 0, j, theta),
                      lambda: OrderRecord(Family.ALPHA_P2, 2, 0, j, theta)):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="MAX_DEGREE = 512"):
                build()
            assert time.perf_counter() - start < 0.5
    # v(theta) = -2: the bound counts terms from v, not from 0
    shifted = theta * pi(F2, -2)
    assert OrderRecord.make(Family.ALPHA_P2, 0, MAX_DEGREE - 2, shifted).theta.val == -2
    with pytest.raises(ValueError, match="MAX_DEGREE"):
        OrderRecord.make(Family.ALPHA_P2, 0, MAX_DEGREE - 1, shifted)


def test_record_accepts_exactly_the_truncated_laurent_forms():
    """OrderRecord accepts theta exactly when it is T^j or a Laurent
    polynomial with top exponent below j (a T-power denominator)."""
    from helpers import rand_nonzero_ratfunc
    rng = random.Random(61)
    seen = set()
    for spec in (F2, F3, F4):
        for _ in range(300):
            theta = rand_nonzero_ratfunc(rng, spec)
            if rng.random() < 0.5:
                theta = canonical_theta(theta, int(theta.val) + rng.randrange(1, 4))
            j = int(theta.val) + rng.randrange(0, 4)
            den = theta.den
            laurent = den.ord == den.degree and theta.num.degree - den.degree < j
            expected = theta == pi(spec, j) or laurent
            try:
                OrderRecord(Family.ALPHA_P_N, spec.p, 0, j, theta)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == expected, (str(theta), j)
            seen.add(expected)
    assert seen == {True, False}


def test_record_dedupe_semantics():
    # equal canonical form <=> same order <=> v(theta - theta') >= j
    a = OrderRecord.make(Family.ALPHA_P_N, 1, 2, one(F2) + pi(F2))
    b = OrderRecord.make(Family.ALPHA_P_N, 1, 2, one(F2) + pi(F2) + pi(F2, 2))
    c = OrderRecord.make(Family.ALPHA_P_N, 1, 2, one(F2))
    assert a.theta == b.theta
    assert same_order(theta_for_record(a), theta_for_record(b))
    assert a.theta != c.theta
    assert not same_order(theta_for_record(a), theta_for_record(c))


def test_canonical_theta_is_projection_onto_order_classes():
    import random as _random
    from helpers import rand_nonzero_ratfunc
    rng = _random.Random(59)
    for spec in (F2, F3):
        made = 0
        while made < 40:
            theta = rand_nonzero_ratfunc(rng, spec)
            j = int(theta.val) + rng.randrange(0, 4)
            theta_c = canonical_theta(theta, j)
            assert (theta - theta_c).val >= j          # same class mod T^j
            assert canonical_theta(theta_c, j) == theta_c   # idempotent
            zero = RatFunc.zero(spec)
            m1 = Mat([[pi(spec, 0), zero], [theta, pi(spec, j)]])
            m2 = Mat([[pi(spec, 0), zero], [theta_c, pi(spec, j)]])
            assert same_order(m1, m2)
            made += 1


def test_ddl_normalize_1x1_record_shape():
    from hopforders.orders import ddl_normalize, is_ddl
    theta = Mat([[RatFunc.one(F3) + pi(F3)]])
    out = ddl_normalize(theta)
    assert is_ddl(out) and out == Mat([[RatFunc.one(F3)]])


def test_theta_for_record():
    r = rec(Family.ALPHA_P_N, F2, 0, 0, one(F2))
    assert theta_for_record(r) == Mat([[one(F2), RatFunc.zero(F2)],
                                       [one(F2), one(F2)]])
    r2 = rec(Family.ALPHA_P2, F2, 2, 1, pi(F2))
    assert theta_for_record(r2) == Mat([[pi(F2, 2), RatFunc.zero(F2)],
                                        [pi(F2), pi(F2)]])
    r3 = rec(Family.ALPHA_P2, F2, 1, 2, pi(F2, 2))
    assert theta_for_record(r3) == Mat([[pi(F2), RatFunc.zero(F2)],
                                        [pi(F2, 2), pi(F2, 2)]])


@pytest.mark.parametrize("spec", [F2, F3, F4, F5, F9], ids=["F2", "F3", "F4", "F5", "F9"])
def test_record_form_equals_the_mat_path(spec):
    """The oracle reads each record's M / d off (i, j, theta): on every row of
    the depth-2 cells with i, j in -2..3 it is the polynomial form of
    theta_for_record, for each preset's records."""
    for family in Family:
        for i, j in itertools.product(range(-2, 4), repeat=2):
            if family is Family.ZP_SQUARED and (i < 0 or j < 0):
                continue
            for row in range(spec.q ** 2):
                record = _record_from_row(family, spec, row, i, j, 2)
                assert _record_form(record) == theta_for_record(record)._polynomial_form(), \
                    record.to_json()


@pytest.mark.parametrize("spec", [F2, F3, F4, F9], ids=lambda s: f"F{s.q}")
def test_listed_record_matrix_equals_the_mat_path(spec):
    """enumerate reads a listed record's A as _integral_quotient(*_quotient(rec)):
    for every record the five presets list at depth 2 with i, j in -2..2 it
    is the A of order_from_theta on the family's B and theta_for_record."""
    listed = 0
    for family in Family:
        for record in enumerate_orders(family, spec, range(-2, 3), range(-2, 3), depth=2):
            expected = order_from_theta(family_matrix(family, spec), theta_for_record(record)).A
            assert _integral_quotient(*_quotient(record)) == expected, record.to_json()
            listed += 1
    assert listed


def test_family_form_is_shared_and_unchanged_by_a_sweep():
    """The oracle's B form is built once per (family, spec), as tuples, and an
    agreement sweep leaves it equal to a fresh polynomial form of B."""
    for family in Family:
        Bm, b = _family_form(family, F3)
        assert _family_form(family, F3) is _family_form(family, F3)
        assert isinstance(Bm, tuple) and all(isinstance(row, tuple) for row in Bm)
        assert oracle_check_family(family, F3, range(0, 3), range(0, 3), depth=2,
                                   predicate_fn=predicate).all_agree
        fresh, fresh_b = family_matrix(family, F3)._polynomial_form()
        assert _family_form(family, F3) == (tuple(map(tuple, fresh)), fresh_b)


# -- oracle and predicates --

def test_oracle_examples():
    assert oracle_is_order(rec(Family.ALPHA_P_N, F2, -1, -2, pi(F2, -3)))
    assert oracle_is_order(rec(Family.ALPHA_P2, F2, 2, 1, pi(F2)))
    assert not oracle_is_order(rec(Family.ALPHA_P2, F2, 0, 1, one(F2)))


def test_predicate_examples():
    assert predicate(rec(Family.ZP_X_AP, F3, 1, 2, one(F3)))
    assert predicate(rec(Family.ZP_SQUARED, F2, 1, 1, pi(F2)))
    assert not predicate(rec(Family.ALPHA_P2, F2, 0, 1, one(F2)))
    assert predicate(rec(Family.ALPHA_P_N, F2, -2, 0, one(F2)))


def test_loose_alpha_p2_bound_differs_from_oracle():
    r = rec(Family.ALPHA_P2, F2, 0, 1, one(F2))
    assert alpha_p2_loose_predicate(r)
    assert not oracle_is_order(r)
    with pytest.raises(ValueError):
        alpha_p2_loose_predicate(rec(Family.MONO_P2, F2, 0, 1, one(F2)))


@pytest.mark.parametrize("family", [Family.ALPHA_P_N, Family.ALPHA_P2,
                                    Family.ZP_X_AP, Family.ZP_SQUARED,
                                    Family.MONO_P2])
@pytest.mark.parametrize("p_spec", [F2, F3])
def test_predicate_agrees_with_oracle_small_grid(family, p_spec):
    report = oracle_check_family(family, p_spec, range(0, 4), range(-1, 3), depth=3)
    assert report.all_agree, report.summary()
    assert report.total > 0


def test_batch_and_generic_paths_agree():
    for family in (Family.ALPHA_P2, Family.ZP_SQUARED, Family.MONO_P2):
        fast = oracle_check_family(family, F2, range(0, 3), range(0, 3), depth=2)
        slow = brute_force_points(family, F2, range(0, 3), range(0, 3), 2, predicate)
        assert fast.total == len(slow)
        assert fast.agreements == sum(orc == prd for _, orc, prd in slow)


def test_extension_field_grid():
    report = oracle_check_family(Family.ALPHA_P2, F4, range(0, 3), range(0, 2), depth=2)
    assert report.all_agree, report.summary()


def test_loose_bound_flagged_by_harness():
    report = oracle_check_family(Family.ALPHA_P2, F2, range(0, 3), range(-1, 3),
                                 depth=4, predicate_fn=alpha_p2_loose_predicate)
    assert not report.all_agree
    # the documented point: i=0, j=1, v(theta)=0
    hits = [d for d in report.disagreements
            if d.record.i == 0 and d.record.j == 1 and d.record.theta.val == 0]
    assert hits
    for d in hits:
        assert d.predicate_verdict and not d.oracle_verdict
        assert d.witness is not None and d.witness.valuation < 0


def test_agreement_report_json_is_pinned():
    report = oracle_check_family(Family.ALPHA_P2, F2, [0], [1], depth=1,
                                 predicate_fn=alpha_p2_loose_predicate)
    assert report.to_json() == {
        "family": "alpha_p2", "p": 2, "depth": 1, "i_values": [0], "j_values": [1],
        "total": 2, "agreements": 1, "disagreements": [{
            "family": "alpha_p2", "p": 2, "i": 0, "j": 1, "theta": "1", "v_theta": 0,
            "monogenic": False, "predicate": True, "oracle": False,
            "witness": {"row": 2, "col": 1, "valuation": -1, "entry": "1/T"}}]}


def test_only_the_closed_forms_are_checked(monkeypatch):
    """predicate_fn names one of the closed forms; any other callable, even
    one wrapping a closed form, is refused before a grid is built."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr("hopforders._walk.cylinders", forbidden)
    with pytest.raises(ValueError, match="predicate_fn"):
        oracle_check_family(Family.ALPHA_P2, F3, range(-1, 3), range(-1, 3), depth=2,
                            predicate_fn=lambda r: alpha_p2_loose_predicate(r))


# -- enumeration --

def test_enumerate_minimal_zp_x_ap():
    records = enumerate_orders(Family.ZP_X_AP, F2, [0], [0], depth=4)
    assert len(records) == 1
    assert records[0].theta == one(F2)
    assert records[0].i == 0 and records[0].j == 0


def test_enumerate_alpha_p_n_counts():
    # everything passes; count = distinct truncations mod T^j plus T^j itself
    records = enumerate_orders(Family.ALPHA_P_N, F3, [1], [1], depth=2)
    assert len(records) == 3 ** 2
    assert len({r.theta for r in records}) == len(records)


def _counts_by_index(family, spec, top=5):
    """a_m for m <= top: the number of orders with i + j = m (i, j >= 0) and
    v(theta) >= 0, each cell swept at depth j + 1 so every such theta is reached."""
    return [sum(rec.theta.val >= 0
                for i in range(m + 1)
                for rec in enumerate_orders(family, spec, [i], [m - i], depth=m - i + 1))
            for m in range(top + 1)]


@pytest.mark.parametrize("spec", [F2, F3, F4, F5], ids=lambda s: f"F{s.q}")
def test_alpha_p_n_counts_by_index(spec):
    # B = 0 makes every DDL Theta an order: a_m = 1 + q + ... + q^m
    q = spec.q
    assert _counts_by_index(Family.ALPHA_P_N, spec) == [(q ** (m + 1) - 1) // (q - 1)
                                                      for m in range(6)]


def test_sigma_conjugate_families_have_equal_counts_by_index():
    # over F_4, mono_p2 and zp_squared are conjugate by sigma (ROADMAP item 14); over
    # F_2 they are not, so the counts there differ and the equality is no accident
    assert _counts_by_index(Family.MONO_P2, F4) == [1, 3, 4, 8, 16, 20]
    assert _counts_by_index(Family.ZP_SQUARED, F4) == [1, 3, 4, 8, 16, 20]
    assert _counts_by_index(Family.MONO_P2, F2) == [1, 1, 2, 4, 4, 6]
    assert _counts_by_index(Family.ZP_SQUARED, F2) == [1, 3, 4, 6, 10, 12]


def test_enumerate_minimal_zp_squared():
    records = enumerate_orders(Family.ZP_SQUARED, F2, [0], [0], depth=4)
    assert len(records) == 1
    assert records[0].theta == one(F2)


def test_enumerate_clamps_zp_squared():
    records = enumerate_orders(Family.ZP_SQUARED, F2, [-1, 0], [-1, 0], depth=2)
    assert all(r.i >= 0 and r.j >= 0 for r in records)


def test_enumerate_deterministic_and_sorted():
    a = enumerate_orders(Family.ALPHA_P2, F2, range(0, 3), range(0, 3), depth=3)
    b = enumerate_orders(Family.ALPHA_P2, F2, range(0, 3), range(0, 3), depth=3)
    assert a == b
    assert a == sorted(a, key=OrderRecord.sort_key)


def test_enumerate_rejects_bad_input():
    with pytest.raises(ValueError):
        enumerate_orders(Family.ALPHA_P2, F2, [], [0], depth=2)
    with pytest.raises(ValueError):
        enumerate_orders(Family.ALPHA_P2, F2, [0], [0], depth=0)
    with pytest.raises(ValueError):
        enumerate_orders("rank1_local", F2, [0], [0], depth=2)


def test_monogenic_flags():
    for family in (Family.ALPHA_P2, Family.MONO_P2):
        records = enumerate_orders(family, F2, range(0, 5), range(0, 3), depth=3)
        for r in records:
            assert r.monogenic == (r.theta.val == r.j and r.p * r.j == r.i)
        assert any(r.monogenic for r in records)
        mono = [r for r in records if r.monogenic]
        assert all(r.theta == pi(F2, r.j) for r in mono)


def test_non_split_orders_exist_in_zp_x_ap():
    records = enumerate_orders(Family.ZP_X_AP, F2, [1], [1], depth=3)
    assert any(r.theta.val < r.j for r in records)


def test_alpha_p2_pi_j_exists_whenever_pj_ge_i():
    for i in range(0, 5):
        for j in range(0, 3):
            r = rec(Family.ALPHA_P2, F2, i, j, pi(F2, j))
            assert oracle_is_order(r) == (2 * j >= i)


# -- rank p --

def test_rank1_local_case():
    zero = RatFunc.zero(F3)
    for i in range(-5, 6):
        assert rank1_orders(zero, i)


def test_rank1_unit_b():
    b = one(F2)
    assert not rank1_orders(b, -1)
    for i in range(0, 5):
        assert rank1_orders(b, i)
    assert not rank1_orders(b, -3)


def test_rank1_normalized_valuation():
    b = pi(F3)      # v(b) = 1 <= p - 2
    res = rank1_orders(b, 0)
    assert res and res.b_normalized == b
    assert res.a == b
    assert not rank1_orders(b, -1)


def test_rank1_renormalizes():
    b = pi(F3, 5)   # v = 5 -> normalized to v = 1 via s = -2
    res = rank1_orders(b, 0)
    assert res.b_normalized.val == 1
    assert bool(res)
    assert not rank1_orders(b, -2)


def test_rank1_description():
    res = rank1_orders(RatFunc.zero(F2), 2)
    assert "T^2*t" in res.description
    assert res.relation == "u^2 = 0*u"


def test_rank1_exponent_limit():
    """|(p-1) i| up to MAX_DEGREE is decided; one past it is refused before
    T^((p-1) i) is built."""
    assert rank1_orders(pi(F2), MAX_DEGREE)
    assert not rank1_orders(pi(F3), -MAX_DEGREE // 2)
    for spec, i in ((F2, MAX_DEGREE + 1), (F2, -MAX_DEGREE - 1), (F3, MAX_DEGREE // 2 + 1)):
        with pytest.raises(ValueError, match="MAX_DEGREE"):
            rank1_orders(pi(spec), i)
        with pytest.raises(ValueError, match="MAX_DEGREE"):
            rank1_orders(RatFunc.zero(spec), i)


def test_huge_record_t_powers_end_in_a_clean_error():
    """A record whose closed form or oracle would build a T-power past
    MAX_TWIST_DEGREE raises before it allocates one."""
    F = FieldSpec(65521)
    mono = [OrderRecord(Family.MONO_P2, 65521, n, n, pi(F)) for n in (200, 3000)]
    alpha = OrderRecord(Family.ALPHA_P2, 2, 0, 10 ** 8, one(F2) + pi(F2))
    assert not predicate(alpha)
    calls = [(fn, r) for r in mono for fn in (predicate, oracle_is_order)]
    for fn, record in calls + [(oracle_is_order, alpha)]:
        tracemalloc.start()
        start = time.perf_counter()
        with pytest.raises(ValueError, match="MAX_TWIST_DEGREE"):
            fn(record)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert seconds < 0.5 and peak < 16 * 2 ** 20, (fn.__name__, record.i, seconds, peak)


def test_past_limit_records_raise_the_degree_of_their_exponent():
    """The oracle refuses a record with i or j = +-10^8 by the degree 10^8 of
    that exponent, before it builds any T-power past MAX_TWIST_DEGREE."""
    records = [OrderRecord(Family.ALPHA_P2, 2, -10 ** 8, 0, one(F2)),
               OrderRecord(Family.MONO_P2, 2, -10 ** 8, 2, one(F2) + pi(F2)),
               OrderRecord(Family.ALPHA_P2, 2, 0, 10 ** 8, one(F2) + pi(F2))]
    text = "a polynomial of degree 100000000 exceeds the limit MAX_TWIST_DEGREE = 65536"
    for record in records:
        tracemalloc.start()
        with pytest.raises(ValueError) as info:
            oracle_is_order(record)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert str(info.value) == text and peak < 16 * 2 ** 20, (record.to_json(), peak)


def test_family_matrix_shared_per_family_and_spec():
    assert family_matrix(Family.MONO_P2, F3) is family_matrix(Family.MONO_P2, F3)
    assert family_matrix(Family.MONO_P2, F3) is not family_matrix(Family.MONO_P2, F2)


def test_sweep_size_limit_refuses_before_any_work(monkeypatch):
    """A sweep of more than MAX_SWEEP_POINTS points in all, one cell
    included, is refused up front, from the ranges' lengths: no grid, no
    record and no value set is built, so a range of 10^9 values or more than
    sys.maxsize values, or a depth of 10^9, costs nothing."""
    def forbidden(*args, **kwargs):
        raise AssertionError("work was done past the limit")

    monkeypatch.setattr("hopforders._walk.cylinders", forbidden)
    monkeypatch.setattr("hopforders.families._record_from_row", forbidden)
    monkeypatch.setattr("hopforders.families._values", forbidden)
    assert 2 ** 24 == MAX_SWEEP_POINTS
    assert 5 ** default_depth(5) > MAX_SWEEP_POINTS
    for spec, i_range, j_range, depth in (
            (F2, [0], [0], 10 ** 9),
            (F5, [0], [0], None),                        # the default depth
            (F2, range(10 ** 7), [0], 1),                # 2 * 10^7 points
            (F2, range(10 ** 9 + 1), [0], 1),
            (F3, range(2 ** 70), range(2 ** 70), 1),
            (F2, range(2 ** 4 + 1), [0], 20),            # 17 cells of 2^20 points
            (F4, range(16), range(17), 8)):
        for sweep in (enumerate_orders, oracle_check_family):
            with pytest.raises(ValueError, match="MAX_SWEEP_POINTS.*--depth"):
                sweep(Family.ALPHA_P2, spec, i_range, j_range, depth=depth)


def test_record_limit_refuses_before_building_the_crossing_cell(monkeypatch):
    """A sweep returning more than MAX_RECORDS records raises before the cell
    that crosses the limit builds any record; a sweep at the limit returns."""
    built = []

    def counted(family, spec, row, i, j, depth):
        built.append((i, j))
        return _record_from_row(family, spec, row, i, j, depth)

    monkeypatch.setattr("hopforders.families._record_from_row", counted)
    # alpha_p_n accepts every point: 15 theta rows plus T^j per depth-4 cell
    monkeypatch.setattr("hopforders.families.MAX_RECORDS", 16)
    assert len(enumerate_orders(Family.ALPHA_P_N, F2, [0], [0], depth=4)) == 16
    one_cell = len(built)
    built.clear()
    with pytest.raises(ValueError, match="MAX_RECORDS = 16"):
        enumerate_orders(Family.ALPHA_P_N, F2, [0], [0, 1], depth=4)
    assert len(built) == one_cell and set(built) == {(0, 0)}
    monkeypatch.setattr("hopforders.families.MAX_RECORDS", 15)
    with pytest.raises(ValueError, match="MAX_RECORDS = 15"):
        enumerate_orders(Family.ALPHA_P_N, F2, [0], [0], depth=4)


def test_sweep_cell_count_and_degree_limits_refuse_before_any_work(monkeypatch):
    """More than MAX_SWEEP_CELLS (i, j) cells, or an exponent with
    (p+1) * max(|i|, |j|) > MAX_DEGREE, is refused before any grid or record
    is built; the degree bound holds at its edge."""
    def forbidden(*args, **kwargs):
        raise AssertionError("work was done past the limit")

    monkeypatch.setattr("hopforders._walk.cylinders", forbidden)
    monkeypatch.setattr("hopforders.families._record_from_row", forbidden)
    assert 2 ** 14 == MAX_SWEEP_CELLS
    for spec, i_range, j_range, limit in (
            (F2, range(-170, 171), range(-170, 171), "MAX_SWEEP_CELLS"),   # 341^2 cells
            (F3, range(2 ** 14 + 1), [0], "MAX_SWEEP_CELLS"),
            (F2, itertools.count(), [0], "MAX_SWEEP_CELLS"),       # read to 2^14 + 1 values
            (F2, [10 ** 9], [0], "MAX_DEGREE"),
            (F2, [0], [-171], "MAX_DEGREE"),                               # 3 * 171 = 513
            (F3, [0, 129], [0], "MAX_DEGREE")):                            # 4 * 129 = 516
        for sweep in (enumerate_orders, oracle_check_family):
            with pytest.raises(ValueError, match=limit):
                sweep(Family.ALPHA_P2, spec, i_range, j_range, depth=1)
    monkeypatch.undo()
    assert (F3.p + 1) * 128 == MAX_DEGREE
    assert oracle_check_family(Family.ALPHA_P2, F3, [-128, 128], [128], depth=1).all_agree


def test_oracle_builds_no_order(monkeypatch):
    """The oracle and the witnesses of a report run the integrality test
    only: no presentation and no embedding is built."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle built an order")

    monkeypatch.setattr("hopforders.orders.Presentation", forbidden)
    monkeypatch.setattr("hopforders.orders.Embedding", forbidden)
    for family in (Family.ALPHA_P_N, Family.ALPHA_P2, Family.MONO_P2):
        assert oracle_is_order(rec(family, F2, 0, 0, one(F2)))
    report = oracle_check_family(Family.ALPHA_P2, F2, range(0, 3), range(0, 3), depth=3,
                                 predicate_fn=alpha_p2_loose_predicate)
    assert report.disagreements
    assert all(d.witness is not None for d in report.disagreements)


@pytest.mark.parametrize("spec", [F2, F3, F4, F9], ids=lambda s: f"F{s.q}")
def test_sweep_oracle_matches_the_cofactor_reference(spec):
    """On every row of the depth-2 cells i, j in -1..2 of the five presets,
    oracle_is_order and _witness (row, column, valuation and entry text)
    equal A = cofactor_inverse(Theta) * B * Theta^(p), which uses no Bareiss."""
    verdicts = set()
    for family in Family:
        B = family_matrix(family, spec)
        for i, j in itertools.product(range(-1, 3), repeat=2):
            for row in range(spec.q ** 2):
                record = _record_from_row(family, spec, row, i, j, 2)
                A = reference_order(B, theta_for_record(record))
                expected = None if isinstance(A, Mat) else A
                w = _witness(record)
                got = None if w is None else (w.row, w.col, w.valuation, str(w.entry))
                assert got == expected and oracle_is_order(record) == (got is None), \
                    record.to_json()
                verdicts.add(got is None)
    assert verdicts == {True, False}


# SHA-256 of the sorted-key JSON of the loose alpha_p2 report over F_2, i in
# 0..3, j in -2..2 at depth 6: its disagreements carry witnesses
LOOSE_REPORT_DIGEST = "71f49f4c69e79c18f04259d1d041528e9897c96d593429e8ea935ce187a469bd"


def test_loose_report_with_witnesses_is_pinned():
    report = oracle_check_family(Family.ALPHA_P2, F2, range(0, 4), range(-2, 3), depth=6,
                                 predicate_fn=alpha_p2_loose_predicate)
    assert report.disagreements and all(d.witness for d in report.disagreements
                                        if not d.oracle_verdict)
    text = json.dumps(report.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == LOOSE_REPORT_DIGEST


@pytest.mark.parametrize("spec", [F2, F3, F4, F9])
def test_witness_matches_order_from_theta(spec):
    """_witness gives the witness order_from_theta raises, None when it returns."""
    rng = random.Random(f"witness|{spec.q}")
    seen = set()
    for _ in range(60):
        family = rng.choice(list(Family))
        i, j = rng.randint(-2, 4), rng.randint(-2, 3)
        row = rng.randrange(spec.q ** 2)
        record = _record_from_row(family, spec, row, i, j, 2)
        try:
            order_from_theta(family_matrix(family, spec), theta_for_record(record))
            expected = None
        except NotIntegralError as exc:
            expected = exc.witness
        assert _witness(record) == expected, record.to_json()
        seen.add(expected is None)
    assert seen == {True, False}
