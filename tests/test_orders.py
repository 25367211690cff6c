import random

import pytest

from hopforders.fields import FieldSpec
from hopforders.matrix import Mat, SingularMatrixError
from hopforders.orders import (NotIntegralError, ddl_normalize,
                               embedding_generators, is_ddl, order_from_theta,
                               presentation_from_matrix, same_order,
                               scale_to_integral, special_fibre,
                               verify_twisted_equation)
from hopforders.ratfunc import RatFunc

from helpers import (F2, F3, F4, F5, F9, deficient, minor_rank, pi, rand_fq,
                     rand_integral_mat, rand_invertible, rand_unit_matrix,
                     reference_order, reference_same_order, worked_example)


# -- presentations --

def test_presentation_zero_1x1():
    A = Mat.zeros(F2, 1)
    pres = presentation_from_matrix(A)
    assert pres.text() == "R[u1]/(u1^2)"


def test_presentation_identity():
    pres = presentation_from_matrix(Mat.identity(F3, 2))
    assert pres.relations() == ["u1^3 - u1", "u2^3 - u2"]


def test_presentation_worked_example():
    _, _, A = worked_example(F2)
    pres = presentation_from_matrix(A)
    assert str(pres) == pres.text() == f"R[u1,u2,u3]/({', '.join(pres.relations())})"
    # column-indexed relations, with -1 = 1 and T^(p+3) = T^5 over F_2
    assert pres.relations() == [
        "u1^2 - T*u1 - (T + T^5)*u2 - (1 + T^3)*u3",
        "u2^2 - T*u1 - T*u2 - u3",
        "u3^2 - T^5*u3",
    ]


def test_presentation_requires_integral():
    with pytest.raises(ValueError):
        presentation_from_matrix(Mat.diag([pi(F2, -1)]))


# -- order_from_theta --

def test_zero_b_admits_any_theta():
    rng = random.Random(5)
    B = Mat.zeros(F3, 2)
    for _ in range(10):
        theta = rand_invertible(rng, F3, 2)
        result = order_from_theta(B, theta)
        assert result.A == Mat.zeros(F3, 2)


@pytest.mark.parametrize("spec", [F2, F3, F5])
def test_worked_example_exact(spec):
    B, theta, expected = worked_example(spec)
    result = order_from_theta(B, theta)
    assert result.A == expected
    assert embedding_generators(result.embedding) == ["T*t1 + t2 + t3", "t2", "T*t3"]
    assert verify_twisted_equation(theta, result.A, B)


def test_ddl_2x2_instance():
    # i=2, j=1, theta=T against the rank-p^2 shift algebra, p=2
    B = Mat.from_ints(F2, [[0, 1], [0, 0]])
    zero = RatFunc.zero(F2)
    theta = Mat([[pi(F2, 2), zero], [pi(F2), pi(F2)]])
    result = order_from_theta(B, theta)
    one = RatFunc.one(F2)
    assert result.A == Mat([[one, one], [-one, -one]])


def test_not_integral_witness():
    B = Mat.from_ints(F2, [[0, 1], [0, 0]])
    zero, one = RatFunc.zero(F2), RatFunc.one(F2)
    theta = Mat([[one, zero], [one, pi(F2)]])   # i=0, j=1, theta=1
    with pytest.raises(NotIntegralError) as exc:
        order_from_theta(B, theta)
    w = exc.value.witness
    assert (w.row, w.col, w.valuation) == (2, 1, -1)


def test_not_integral_error_message_and_witness():
    """The message is rendered on demand, from the witness it carries."""
    B = Mat.from_ints(F2, [[0, 1], [0, 0]])
    theta = Mat([[RatFunc.one(F2), RatFunc.zero(F2)], [RatFunc.one(F2), pi(F2)]])
    with pytest.raises(NotIntegralError) as exc:
        order_from_theta(B, theta)
    w = exc.value.witness
    assert (w.row, w.col, w.valuation, w.entry) == (2, 1, -1, pi(F2, -1))
    assert str(exc.value) == "resulting matrix is not integral: entry (2,1) has valuation -1: 1/T"


def _reference_cases(rng, spec, n):
    """Random Theta with general denominators, unit Thetas (integral A) and
    unit Thetas scaled by T^+-1, against a B whose denominators are units
    other than T-powers."""
    for kind in range(6):
        B = rand_integral_mat(rng, spec, n, 1)
        if kind < 3:
            theta = rand_invertible(rng, spec, n, 2)
        else:
            theta = rand_unit_matrix(rng, spec, n, 1)
            if kind == 4:
                theta = theta.scale(pi(spec, -1))
            elif kind == 5:
                theta = theta.scale(pi(spec))
        yield B, theta


@pytest.mark.parametrize("spec", [F2, F3, F4, F9], ids=lambda s: f"F{s.q}")
def test_order_from_theta_matches_cofactor_reference(spec):
    """A, or the witness (row, col, valuation, entry text), equals the one
    from cofactor_inverse(Theta) * B * Theta^(p) in RatFunc arithmetic."""
    rng = random.Random(f"oft-reference-{spec.q}")
    verdicts = set()
    for n in (2, 3):
        for _ in range(3):
            for B, theta in _reference_cases(rng, spec, n):
                expected = reference_order(B, theta)
                try:
                    got = order_from_theta(B, theta).A
                except NotIntegralError as exc:
                    w = exc.witness
                    got = (w.row, w.col, w.valuation, str(w.entry))
                assert got == expected
                verdicts.add(isinstance(got, Mat))
    assert verdicts == {True, False}


@pytest.mark.parametrize("spec", [F2, F3, F4, F9], ids=lambda s: f"F{s.q}")
def test_order_from_theta_singular_theta_message(spec):
    rng = random.Random(f"oft-singular-{spec.q}")
    zero = RatFunc.zero(spec)
    for n in (2, 3):
        B = rand_integral_mat(rng, spec, n, 1)
        singular = Mat(deficient([list(r) for r in rand_invertible(rng, spec, n, 1).rows], zero))
        with pytest.raises(SingularMatrixError, match=r"^matrix is singular over K$"):
            order_from_theta(B, singular)


def test_order_from_theta_preconditions():
    """B is checked first, in this order: integral, then of Theta's size and
    spec; a singular Theta is reported only for a good B."""
    with pytest.raises(ValueError, match=r"^B must be integral: entry \(1,1\) has valuation -1"):
        order_from_theta(Mat.diag([pi(F2, -1)]), Mat.identity(F2, 1))
    with pytest.raises(ValueError, match="^B must be integral"):
        order_from_theta(Mat.diag([pi(F2, -1)]), Mat.zeros(F3, 2))
    size = "^B and Theta must have equal size over one field spec$"
    for B, theta in ((Mat.zeros(F2, 2), Mat.zeros(F2, 3)), (Mat.zeros(F3, 2), Mat.zeros(F2, 2))):
        with pytest.raises(ValueError, match=size):
            order_from_theta(B, theta)
    with pytest.raises(SingularMatrixError):
        order_from_theta(Mat.zeros(F2, 2), Mat.zeros(F2, 2))


# -- verify_twisted_equation --

def test_order_from_theta_twist_degree_limit():
    """Theta's entries and its common denominator d (for d^(p-1) = d^(p) / d)
    are twisted under MAX_TWIST_DEGREE: p * 2 is refused, p * 1 passes."""
    F = FieldSpec(65521)
    one = Mat([[RatFunc.one(F)]])
    for theta in (pi(F, 2), pi(F, -2)):
        with pytest.raises(ValueError, match="MAX_TWIST_DEGREE"):
            order_from_theta(one, Mat([[theta]]))
    assert order_from_theta(one, Mat([[pi(F, 1)]])).A == Mat([[pi(F, 65520)]])
    with pytest.raises(NotIntegralError) as exc:
        order_from_theta(one, Mat([[pi(F, -1)]]))
    assert exc.value.witness.valuation == -65520


def test_verify_trivial():
    rng = random.Random(9)
    A = rand_integral_mat(rng, F3, 2)
    assert verify_twisted_equation(Mat.identity(F3, 2), A, A)


def test_verify_diagonal():
    for spec in (F2, F3, F5):
        p = spec.p
        theta = Mat.diag([pi(spec), RatFunc.one(spec)])
        B = Mat.identity(spec, 2)
        A = Mat.diag([pi(spec, p - 1), RatFunc.one(spec)])
        assert verify_twisted_equation(theta, A, B)
        assert not verify_twisted_equation(theta, B, B)


# -- same_order --

def test_same_order_reflexive():
    rng = random.Random(13)
    theta = rand_invertible(rng, F3, 2)
    assert same_order(theta, theta)


def test_same_order_shift_by_pi_j():
    theta0 = RatFunc.one(F2) + pi(F2)   # any theta with v <= j = 2
    zero = RatFunc.zero(F2)
    t1 = Mat([[pi(F2), zero], [theta0, pi(F2, 2)]])
    t2 = Mat([[pi(F2), zero], [theta0 + pi(F2, 2), pi(F2, 2)]])
    assert same_order(t1, t2)
    t3 = Mat([[pi(F2), zero], [theta0 + pi(F2), pi(F2, 2)]])
    assert not same_order(t1, t3)       # v(theta - theta') = 1 < j


def test_same_order_distinct_diagonals():
    a = Mat.diag([pi(F3), RatFunc.one(F3)])
    b = Mat.diag([RatFunc.one(F3), pi(F3)])
    assert not same_order(a, b)


def test_same_order_requires_invertible():
    with pytest.raises(SingularMatrixError):
        same_order(Mat.identity(F2, 2), Mat.zeros(F2, 2))
    with pytest.raises(SingularMatrixError):
        same_order(Mat.zeros(F2, 2), Mat.identity(F2, 2))


@pytest.mark.parametrize("spec", [F2, F3, F4])
def test_same_order_singular_theta_raises(spec):
    rng = random.Random(f"same-order-singular-{spec.q}")
    zero = RatFunc.zero(spec)
    for _ in range(4):
        theta = rand_invertible(rng, spec, 3, 1)
        singular = Mat(deficient([list(r) for r in rand_invertible(rng, spec, 3, 1).rows], zero))
        with pytest.raises(SingularMatrixError, match="singular"):
            same_order(theta, singular)
        with pytest.raises(SingularMatrixError, match="singular"):
            same_order(singular, theta)


def test_same_order_is_equivalence():
    rng = random.Random(17)
    for _ in range(20):
        theta = rand_invertible(rng, F3, 2)
        u1 = rand_unit_matrix(rng, F3, 2)
        u2 = rand_unit_matrix(rng, F3, 2)
        t1, t2 = theta @ u1, theta @ u2
        assert same_order(theta, t1) and same_order(t1, theta)   # symmetric
        assert same_order(t1, t2)                                # transitive leg
    a = rand_invertible(rng, F3, 2)
    b = a @ Mat.diag([pi(F3), RatFunc.one(F3)])
    assert not same_order(a, b)


@pytest.mark.parametrize("spec", [F2, F3, F4, F9], ids=["F2", "F3", "F4", "F9"])
def test_same_order_matches_ratfunc_reference(spec):
    # Theta' = Theta * X for four kinds of X, each failing at most one leg of
    # the decision: integral with unit det (twice), det of valuation 1 only,
    # U not integral only
    rng = random.Random(f"same-order-ref-{spec.q}")
    one = RatFunc.one(spec)
    unit_scalar = (one + pi(spec)) / (one + pi(spec, 2))
    for n in (2, 3):
        for _ in range(4):
            theta = rand_invertible(rng, spec, n, 1)
            rest = [one] * (n - 2)
            cases = [(theta @ rand_unit_matrix(rng, spec, n, 1), True),
                     (theta @ Mat.diag([pi(spec), one] + rest), False),
                     (theta @ Mat.diag([pi(spec), pi(spec, -1)] + rest), False),
                     (theta.scale(unit_scalar), True)]
            for theta2, expected in cases:
                assert same_order(theta, theta2) == expected
                assert reference_same_order(theta, theta2) == expected


def test_same_order_error_order():
    rng = random.Random(19)
    zero = RatFunc.zero(F3)
    theta3 = rand_invertible(rng, F3, 3)
    singular3 = Mat(deficient([list(r) for r in rand_invertible(rng, F3, 3).rows], zero))
    singular2 = Mat(deficient([list(r) for r in rand_invertible(rng, F3, 2).rows], zero))
    with pytest.raises(SingularMatrixError, match="singular"):
        same_order(singular3, rand_invertible(rng, F3, 2))
    with pytest.raises(ValueError, match=r"^dimension mismatch: 3 vs 2$"):
        same_order(theta3, singular2)
    with pytest.raises(ValueError, match=r"^matrices over different field specs$"):
        same_order(theta3, rand_invertible(rng, F5, 3))


def test_same_order_builds_no_ratfunc(monkeypatch):
    rng = random.Random(23)
    theta, unit = rand_invertible(rng, F3, 3), rand_unit_matrix(rng, F3, 3)
    pairs = [(theta, theta @ unit),
             (theta, theta @ Mat.diag([pi(F3), pi(F3, -1), RatFunc.one(F3)]))]
    non_unit = unit @ Mat.diag([pi(F3), RatFunc.one(F3), RatFunc.one(F3)])
    assert any(x.den.degree > x.den.ord for row in theta.rows for x in row)

    def refuse(*args, **kwargs):
        raise AssertionError("same_order left F_q[T]")

    for cls, name in ((RatFunc, "__init__"), (RatFunc, "_raw"), (Mat, "inv"), (Mat, "det")):
        monkeypatch.setattr(cls, name, refuse)
    assert [same_order(*pair) for pair in pairs] == [True, False]
    assert unit.is_unit() and not non_unit.is_unit()


def test_twisted_equation_holds_for_every_success():
    # whatever A order_from_theta returns satisfies Theta*A = B*Theta^(p)
    rng = random.Random(47)
    built = 0
    while built < 20:
        spec = rng.choice([F2, F3])
        B = rand_integral_mat(rng, spec, 2)
        theta = rand_unit_matrix(rng, spec, 2)
        try:
            result = order_from_theta(B, theta)
        except NotIntegralError:
            continue
        assert verify_twisted_equation(theta, result.A, B)
        built += 1


# -- unit closure (the order is a coset of M_n(R)^x) --

def test_unit_closure():
    rng = random.Random(19)
    trials = 0
    while trials < 30:
        spec = rng.choice([F2, F3])
        n = rng.choice([2, 3])
        B = rand_integral_mat(rng, spec, n)
        theta = rand_unit_matrix(rng, spec, n)
        try:
            base = order_from_theta(B, theta)
        except NotIntegralError:
            continue
        U = rand_unit_matrix(rng, spec, n)
        moved = order_from_theta(B, theta @ U)     # must succeed
        assert same_order(theta, theta @ U)
        assert moved.A == U.inv() @ base.A @ U.twist()
        trials += 1


# -- DDL form --

def test_is_ddl_examples():
    zero = RatFunc.zero(F2)
    theta = RatFunc.one(F2) + pi(F2)
    assert is_ddl(Mat([[pi(F2), zero], [theta, pi(F2, 2)]]))
    assert not is_ddl(Mat([[pi(F2), RatFunc.one(F2)], [zero, pi(F2)]]))
    assert not is_ddl(Mat([[pi(F2), zero], [pi(F2, 3), pi(F2, 2)]]))   # dominance fails
    assert not is_ddl(Mat.diag([pi(F2), pi(F2, 2)]))                   # zero left entry
    assert not is_ddl(Mat.diag([pi(F3) + pi(F3, 2)]))                  # not a pure power
    assert is_ddl(Mat.diag([pi(F3, -4)]))                              # n=1 pure power


def test_ddl_normalize_swap():
    zero, one = RatFunc.zero(F3), RatFunc.one(F3)
    theta = Mat([[zero, pi(F3)], [one, zero]])
    out = ddl_normalize(theta)
    assert is_ddl(out)
    assert same_order(theta, out)
    assert out[0, 0] == pi(F3)          # minimal-valuation column swapped first


def test_ddl_normalize_idempotent_up_to_same_order():
    zero = RatFunc.zero(F2)
    theta = Mat([[pi(F2), zero], [RatFunc.one(F2), pi(F2, 2)]])
    assert is_ddl(theta)
    out = ddl_normalize(theta)
    assert is_ddl(out) and same_order(theta, out)


def test_ddl_normalize_dominance_case():
    zero = RatFunc.zero(F2)
    theta = Mat([[pi(F2), zero], [pi(F2, 3), pi(F2, 2)]])
    out = ddl_normalize(theta)
    assert is_ddl(out)
    assert same_order(theta, out)
    assert out[1, 0].val <= 2
    assert out[0, 0] == pi(F2) and out[1, 1] == pi(F2, 2)


def test_ddl_normalize_random():
    rng = random.Random(23)
    for spec, n in [(F2, 2), (F3, 2), (F3, 3)]:
        for _ in range(15):
            theta = rand_invertible(rng, spec, n)
            out = ddl_normalize(theta)
            assert is_ddl(out)
            assert same_order(theta, out)
            again = ddl_normalize(out)
            assert is_ddl(again) and same_order(out, again)


def test_ddl_normalize_singular():
    with pytest.raises(SingularMatrixError):
        ddl_normalize(Mat.zeros(F2, 2))


# -- scaling --

def test_scale_to_integral():
    zero, one = RatFunc.zero(F2), RatFunc.one(F2)
    m = Mat([[pi(F2, -2), zero], [one, pi(F2)]])
    out = scale_to_integral(m)
    assert out == Mat([[one, zero], [pi(F2, 2), pi(F2, 3)]])

    already = Mat([[one, zero], [pi(F2, 2), pi(F2)]])
    assert scale_to_integral(already) == already

    m2 = Mat([[pi(F3, 3), pi(F3, 5)], [pi(F3, 4), pi(F3, 3)]])
    assert scale_to_integral(m2) == Mat([[RatFunc.one(F3), pi(F3, 2)],
                                         [pi(F3), RatFunc.one(F3)]])
    with pytest.raises(ValueError):
        scale_to_integral(Mat.zeros(F2, 2))


# -- special fibre --

def test_fibre_identity_is_etale():
    report = special_fibre(Mat.identity(F3, 2))
    assert report.etale and not report.connected
    assert report.etale_rank == 2
    assert report.fpower_ranks == (2, 2)
    assert report.classification == "etale"


def test_fibre_zero_is_connected():
    report = special_fibre(Mat.zeros(F5, 3))
    assert report.connected and not report.etale
    assert report.fpower_ranks == (0, 0, 0)
    assert report.classification == "connected"


@pytest.mark.parametrize("spec", [F2, F3, F5])
def test_fibre_worked_example(spec):
    _, _, A = worked_example(spec)
    report = special_fibre(A)
    minus_one = spec.element(-1)
    assert report.abar == (
        (spec.zero, spec.zero, spec.zero),
        (spec.zero, spec.zero, spec.zero),
        (minus_one, minus_one, spec.zero),
    )
    assert report.fpower_ranks == (1, 0, 0)
    assert report.connected


def test_fibre_ranks_non_increasing_and_block_additive():
    rng = random.Random(29)
    for _ in range(20):
        A = rand_integral_mat(rng, F3, 3)
        r = special_fibre(A).fpower_ranks
        assert all(r[i] >= r[i + 1] for i in range(len(r) - 1))
    # block diagonal: etale rank adds up
    zero = RatFunc.zero(F2)
    one = RatFunc.one(F2)
    blocks = Mat([
        [one, zero, zero],
        [zero, zero, one],    # shift block: nilpotent
        [zero, zero, zero],
    ])
    rep = special_fibre(blocks)
    assert rep.etale_rank == 1
    assert rep.classification == "mixed"


def _fq_product(X, Y, zero):
    return [[sum((X[i][k] * Y[k][j] for k in range(len(Y))), zero)
             for j in range(len(Y[0]))] for i in range(len(X))]


@pytest.mark.parametrize("spec", [F2, F3, F4, F9])
def test_fibre_ranks_match_minor_references(spec):
    """fpower_ranks[m-1] = rank of Abar * Abar^(p) * ... * Abar^(p^(m-1)),
    with the twist and the rank computed independently of special_fibre."""
    rng = random.Random(f"fibre-ranks-{spec.q}")
    zero = spec.zero
    for trial in range(15):
        abar = [[rand_fq(rng, spec) for _ in range(3)] for _ in range(3)]
        if trial % 3 == 0:
            abar = deficient(abar, zero)
        A = Mat([[RatFunc.constant(spec, x) + pi(spec, 1 + trial % 2) for x in row]
                 for row in abar])
        expected, acc = [], abar
        for m in range(1, 4):
            expected.append(minor_rank(acc, zero))
            acc = _fq_product(acc, [[x ** (spec.p ** m) for x in row] for row in abar], zero)
        report = special_fibre(A)
        assert report.abar == tuple(tuple(row) for row in abar)
        assert list(report.fpower_ranks) == expected


def test_fibre_frobenius_over_f4():
    """Over F_4 the twist squares entries, so Abar * Abar^(2) and Abar * Abar
    can have different ranks; the fibre follows the twisted product."""
    a = F4.gen
    one = F4.one
    for abar, ranks, kind in (([[one, a], [a, one + a]], (1, 0), "connected"),
                              ([[one, a], [one + a, one]], (1, 1), "mixed")):
        untwisted = _fq_product(abar, abar, F4.zero)
        assert minor_rank(untwisted, F4.zero) != ranks[1]
        A = Mat([[RatFunc.constant(F4, x) + pi(F4) for x in row] for row in abar])
        report = special_fibre(A)
        assert report.fpower_ranks == ranks
        assert report.classification == kind


def test_fibre_requires_integral():
    with pytest.raises(ValueError):
        special_fibre(Mat.diag([pi(F2, -1)]))


# -- embeddings --

def test_embedding_identity():
    res = order_from_theta(Mat.zeros(F3, 2), Mat.identity(F3, 2))
    assert embedding_generators(res.embedding) == ["t1", "t2"]


def test_embedding_columns():
    zero = RatFunc.zero(F2)
    theta = Mat([[pi(F2, 2), zero], [pi(F2), pi(F2)]])
    res = order_from_theta(Mat.zeros(F2, 2), theta)
    assert embedding_generators(res.embedding) == ["T^2*t1 + T*t2", "T*t2"]
