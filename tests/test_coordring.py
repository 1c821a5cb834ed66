import itertools

import pytest

from qflag import linalg as la
from qflag.cartan import verma_character
from qflag.coordring import CoordRing
from qflag.errors import DominanceError, OreSearchError, QflagError


def test_unit_laws(ring1):
    u = ring1.unit()
    for b in ring1.grade_basis((1,)):
        assert ring1.mult(u, b).vec == b.vec
        assert ring1.mult(b, u).vec == b.vec


def test_product_weights_and_functional_identity(ring1, alg1):
    # <ab, x> = <v* (x) v*, Delta(x)(va (x) vb)> holds by construction; spot
    # check the evaluations of a product against plus-part words directly
    a, b = ring1.grade_basis((1,))
    ab = ring1.mult(a, b)
    d = alg1.datum
    evs = ab.evaluations()
    words = alg1.basis(ab.gamma).free_words
    assert len(evs) == len(words)
    fac = ring1.factory(ab.grade)
    for w, e in zip(words, evs):
        # the top coefficient <v*, e_w . ab>: e_w lands on the top weight
        g, top = fac.apply_eword(ab.gamma, ab.vec, w)
        assert not any(g) and top[0] == e


def test_q_commutation_on_projective_line(ring1):
    x, y = ring1.grade_basis((1,))
    xy = ring1.mult(x, y)
    yx = ring1.mult(y, x)
    q = ring1.datum.q_power(1)
    assert xy.vec == [q * c for c in yx.vec]


def test_associativity_a2_window(ring2):
    basis = ring2.grade_basis((1, 0)) + ring2.grade_basis((0, 1))
    for x, y, z in itertools.product(basis[:3], basis[:3], basis[:3]):
        lhs = ring2.mult(ring2.mult(x, y), z)
        rhs = ring2.mult(x, ring2.mult(y, z))
        assert lhs.gamma == rhs.gamma and lhs.vec == rhs.vec


def test_u_action_examples(ring1, alg1):
    d = alg1.datum
    c = ring1.extremal((0,), (1,))  # lowest-weight line of V(w)
    up = ring1.u_action(alg1.e(0), c)
    assert up.weight == (1,)
    assert not up.is_zero()
    # k acts by the weight
    scaled = ring1.u_action(alg1.k((1,)), c)
    assert scaled.vec == [d.q_pair((1,), c.weight) * v for v in c.vec]
    # the unit is killed by the raising operators
    assert ring1.u_action(alg1.e(0), ring1.unit()).is_zero()


def test_u_action_derivation_rule(ring2, alg2):
    # u(ab) = sum (u0 a)(u1 b) on generators
    a = ring2.grade_basis((1, 0))[1]
    b = ring2.grade_basis((0, 1))[0]
    for u in [alg2.e(0), alg2.f(1), alg2.k((1, 1))]:
        lhs = ring2.u_action(u, ring2.mult(a, b))
        total = None
        for (m0, m1), c in alg2.coproduct(u).items():
            ua = ring2.u_action(alg2.mono_element(m0).scale(c), a)
            ub = ring2.u_action(alg2.mono_element(m1), b)
            if ua.is_zero() or ub.is_zero():
                continue
            term = ring2.mult(ua, ub)
            total = term if total is None else total + term
    assert total is not None
    assert lhs.gamma == total.gamma and lhs.vec == total.vec


def test_extremal_examples(ring1, ring2):
    d2 = ring2.datum
    c1 = ring1.extremal((), (2,))
    assert c1.weight == (2,) and c1.gamma == (0,)
    w0 = d2.longest_word()
    cw0 = ring2.extremal(w0, (1, 0))
    assert cw0.weight == d2.weyl_act(tuple(reversed(w0)), (1, 0))
    assert ring2.factory((1, 0)).slice_dim(cw0.gamma) == 1
    with pytest.raises(DominanceError):
        ring1.extremal((), (-1,))


def test_extremal_products_stay_extremal(ring2):
    d = ring2.datum
    for w in d.all_weyl_words():
        ca = ring2.extremal(w, (1, 0))
        cb = ring2.extremal(w, (0, 1))
        prod = ring2.mult(ca, cb)
        cab = ring2.extremal(w, (1, 1))
        assert prod.gamma == cab.gamma
        ratio = None
        for x, y in zip(prod.vec, cab.vec):
            if not y.is_zero():
                ratio = x / y
        assert ratio is not None and not ratio.is_zero()


def test_ore_witnesses_trivial(ring1):
    u = ring1.unit()
    t, psi = ring1.ore_witness(u, (0,), (1,), side="left")
    assert ring1.mult(t, u).vec == ring1.mult(
        psi, ring1.extremal((0,), (1,))).vec


def test_ore_witness_nontrivial(ring1):
    phi = ring1.grade_basis((1,))[0]  # non-extremal for w = s
    t, psi = ring1.ore_witness(phi, (0,), (1,), side="left")
    s = ring1.extremal((0,), (1,))
    assert ring1.mult(t, phi).vec == ring1.mult(psi, s).vec
    assert sum(t.grade) <= 2
    t2, psi2 = ring1.ore_witness(phi, (0,), (1,), side="right")
    assert ring1.mult(phi, t2).vec == ring1.mult(s, psi2).vec


def test_ore_witness_all_weyl_a2(ring2):
    d = ring2.datum
    for w in d.all_weyl_words():
        s_grade = (1, 0)
        for phi in ring2.grade_basis((1, 0)):
            t, psi = ring2.ore_witness(phi, w, s_grade, side="left")
            s = ring2.extremal(w, s_grade)
            assert ring2.mult(t, phi).vec == ring2.mult(psi, s).vec


def test_localization_characters(ring1):
    d = ring1.datum
    for lam in [(0,), (1,), (-1,), (2,)]:
        ch = ring1.localized_character((), lam, (3,))
        expected = {g: verma_character(d, lam, (3,)).coeff(
            d.weight_sub_root(lam, g)) for g in ch}
        assert ch == expected


def test_localization_nontrivial_weyl(ring1, ring2):
    rep = ring1.localize((0,), (1,), (2,))
    assert rep["stabilized"] and rep["dimension"] == 1
    # twisted chart characters agree with the straight one
    d = ring1.datum
    ch_w = ring1.localized_character((0,), (1,), (3,))
    ch_1 = ring1.localized_character((), (1,), (3,))
    assert ch_w == ch_1
    rep2 = ring2.localize((0,), (1, 0), (1, 1))
    assert rep2["stabilized"] and rep2["dimension"] == 2


def test_theta_check_negative_grade(ring1):
    assert ring1.theta_check((-1,), (2,), max_level=7)["pass"]


def test_localized_element_identification(ring1, ring2):
    from qflag.coordring import LocalizedElement
    d = ring1.datum
    phi = ring1.grade_basis((2,))[1]
    x = LocalizedElement(ring1, (), (1,), phi)           # grade w fraction
    y = x.raise_level((2,))
    assert y.level == (3,) and y.grade == x.grade
    assert x.same_element(y) and y.same_element(x)
    # a different numerator at the same level is a different element
    other = LocalizedElement(ring1, (), (1,),
                             phi + ring1.grade_basis((2,))[1])
    assert not x.same_element(other)
    # works against the twisted chart too
    w0 = ring2.datum.longest_word()
    psi = ring2.grade_basis((1, 1))[0]
    z = LocalizedElement(ring2, w0, (1, 0), psi)
    assert z.same_element(z.raise_level((1, 1)))


def test_localization_reports_failure(ring1):
    rep = ring1.localize((), (0,), (3,), max_level=1)
    assert not rep["stabilized"]


def test_theta_check(ring1, ring2):
    assert ring1.theta_check((2,), (2,))["pass"]
    assert ring1.theta_check((0,), (0,))["drops"][0]["rank"] == 1
    assert ring2.theta_check((1, 0), (1, 1))["pass"]


def test_schubert_examples(ring1):
    d = ring1.datum
    one = ring1.unit()
    for w in d.all_weyl_words():
        assert ring1.schubert(w, one)["epsilon"].is_one()
        c = ring1.extremal(w, (2,))
        assert not ring1.schubert(w, c)["epsilon"].is_zero()
    # Phi_1(c_lam) is the character functional: degree-0 table only
    rep = ring1.schubert((), ring1.highest((2,)))
    assert rep["table"] == {"<0>": ["1"]}


def test_schubert_kernel_dims(ring1, ring2):
    # the functional table of the identity element sees every weight space
    # (the evaluation pairing is injective), so the identity-cell quotient
    # is the whole ring; the longest element keeps only the extremal line
    assert ring1.schubert_kernel_dim((), (2,)) == 0
    assert ring1.schubert_kernel_dim((0,), (2,)) == 2
    d2 = ring2.datum
    assert ring2.schubert_kernel_dim((), (1, 0)) == 0
    assert ring2.schubert_kernel_dim(d2.longest_word(), (1, 0)) == 2
    partial = ring2.schubert_kernel_dim((0,), (1, 0))
    assert partial == 1


def test_covering_by_translated_cells(ring1):
    # sum over w of A(lam) c^w_mu = A(lam + mu) at lam = mu = omega
    d = ring1.datum
    tgt = ring1.module((2,))
    cols = []
    for w in d.all_weyl_words():
        cw = ring1.extremal(w, (1,))
        for x in ring1.grade_basis((1,)):
            cols.append(ring1.embed_full(tgt, ring1.mult(x, cw)))
    assert la.rank(cols) == tgt.dim


def test_grading_surjectivity(ring2):
    d = ring2.datum
    tgt = ring2.module((1, 1))
    cols = []
    for x in ring2.grade_basis((1, 0)):
        for y in ring2.grade_basis((0, 1)):
            cols.append(ring2.embed_full(tgt, ring2.mult(x, y)))
    assert la.rank(cols) == tgt.dim
