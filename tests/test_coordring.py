import itertools
from collections import Counter

import pytest

from qflag import coordring, suites
from qflag import linalg as la
from qflag.cartan import box, by_height, preset, verma_character
from qflag.config import RunConfig
from qflag.coordring import CoordRing
from qflag.enveloping import UAlgebra
from qflag.errors import DominanceError, OreSearchError, QflagError
from qflag.scalars import QScalar
from qflag.thetarep import ThetaDirect, theta_formula
from qflag.weightmod import SimpleFactory, braid_word


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
        g, top = fac.apply_word(ab.gamma, ab.vec, "e", w)
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


def test_a_vanishing_u_image_lands_at_the_target_drop(ring1, alg1):
    # e raises the highest line off V(w); f lowers V(4)'s lowest line off it
    top = ring1.unit()
    up = ring1.u_action(alg1.e(0), top)
    assert (up.grade, up.gamma, up.vec) == ((0,), (-1,), [])
    low = ring1.slice_basis((4,), (4,))[0]
    down = ring1.u_action(alg1.f(0), low)
    assert (down.grade, down.gamma, down.vec) == ((4,), (5,), [])
    assert down.evaluations() == [ring1.datum.zero()]


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


def test_extremal_built_once_per_key(monkeypatch, alg2):
    built = Counter()
    real = CoordRing._extremal

    def spy(self, word, lam):
        built[(word, lam)] += 1
        return real(self, word, lam)

    monkeypatch.setattr(CoordRing, "_extremal", spy)
    ring = CoordRing(alg2)
    d = alg2.datum
    # (0, 1, 0) and (1, 0, 1) are two words of the longest element
    first = ring.extremal((0, 1, 0), (1, 0))
    assert ring.extremal((1, 0, 1), [1, 0]) is first
    for _ in range(2):
        for w in d.all_weyl_words():
            for lam in ((1, 0), (0, 1), (1, 1)):
                ring.extremal(w, lam)
    assert len(built) == 6 * 3 and set(built.values()) == {1}


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
    assert ring1.theta_check((-1,), (2,))["pass"]


def same_element(x, y) -> bool:
    """Two fractions denote the same element when they agree after raising
    to a common level."""
    if x.word != y.word or x.grade != y.grade:
        return False
    datum = x.ring.datum
    joint = tuple(max(a, b) for a, b in zip(x.level, y.level))
    a = x.raise_level(datum.weight_sub(joint, x.level)).numerator
    b = y.raise_level(datum.weight_sub(joint, y.level)).numerator
    return a.gamma == b.gamma and a.vec == b.vec


def test_localized_element_identification(ring1, ring2):
    from qflag.coordring import LocalizedElement
    d = ring1.datum
    phi = ring1.grade_basis((2,))[1]
    x = LocalizedElement(ring1, (), (1,), phi)           # grade w fraction
    y = x.raise_level((2,))
    assert y.level == (3,) and y.grade == x.grade
    assert same_element(x, y) and same_element(y, x)
    # a different numerator at the same level is a different element
    other = LocalizedElement(ring1, (), (1,),
                             phi + ring1.grade_basis((2,))[1])
    assert not same_element(x, other)
    # works against the twisted chart too
    w0 = ring2.datum.longest_word()
    psi = ring2.grade_basis((1, 1))[0]
    z = LocalizedElement(ring2, w0, (1, 0), psi)
    assert same_element(z, z.raise_level((1, 1)))


def test_localization_reports_failure(ring1, pairing1, monkeypatch):
    monkeypatch.setattr(coordring, "MAX_LEVEL", 1)
    rep = ring1.localize((), (0,), (3,))
    assert not rep["stabilized"]
    # every search reads the one constant: theta_check and the direct theta
    # route give up at level 1 too
    drops = ring1.theta_check((-1,), (2,))["drops"]
    assert [d.get("reason") for d in drops] == \
        [None] + ["no stabilization level found"] * 2
    plus = theta_formula(pairing1, 4).plus
    with pytest.raises(QflagError, match="within 1 steps"):
        ThetaDirect(ring1, plus, (0,))


def test_level_search_stops_at_the_first_stable_level(ring1):
    # on A1 the localized drop-g piece of grade lam is stable from level
    # max(0, g - lam) rho on, for both searches
    for lam in range(-1, 3):
        for g in range(4):
            level = f"[{max(0, g - lam)}]"
            assert ring1.localize((), (lam,), (g,))["level"] == level
        drops = ring1.theta_check((lam,), (2,))["drops"]
        assert [d["level"] for d in drops] == \
            [f"[{max(0, g - lam)}]" for g in range(3)]


@pytest.mark.parametrize("typ, levels", [
    ("A1", {"localization": {0, 1, 2, 3, 4}, "theta": {2, 3, 4}}),
    ("A2", {"localization": {0, 1, 2}, "theta": {2, 3}}),
    ("B2", {"localization": {0, 1, 2}, "theta": {2, 3}}),
    ("G2", {"localization": {0, 1, 2}, "theta": {2, 3}}),
])
def test_suites_stabilize_below_the_level_cap(monkeypatch, typ, levels):
    """The levels (in multiples of rho) that the localization and theta
    suites stabilize at; every search succeeds well inside MAX_LEVEL."""
    found = []
    real = CoordRing.first_level

    def spy(self, lam, passes):
        mu = real(self, lam, passes)
        found.append(None if mu is None else
                     next(k for k in range(coordring.MAX_LEVEL + 1)
                          if mu == tuple(k * r for r in self.datum.rho)))
        return mu

    monkeypatch.setattr(CoordRing, "first_level", spy)
    for suite, expected in levels.items():
        found.clear()
        assert suites.SUITES[suite](RunConfig(type=typ))["pass"]
        assert set(found) == expected, suite
        assert max(found) < coordring.MAX_LEVEL


@pytest.mark.parametrize("lam", [(1,), (2,), (1, 0), (1, 1)])
def test_mult_matrix_columns_are_products(ring1, ring2, lam):
    """Column r of mult_matrix(lam, gamma, s, side) is s*phi_r ('left') or
    phi_r*s ('right') for the slice basis phi_r, and the products land at
    grade lam + grade(s)."""
    ring = ring1 if len(lam) == 1 else ring2
    d = ring.datum
    factors = [ring.extremal(w, d.fundamental(0))
               for w in d.all_weyl_words()] + ring.grade_basis(lam)[:2]
    for gamma in sorted(ring.factory(lam).drops):
        basis = ring.slice_basis(lam, gamma)
        for s in factors:
            for side in ("left", "right"):
                mat = ring.mult_matrix(lam, gamma, s, side)
                for r, phi in enumerate(basis):
                    prod = ring.mult(s, phi) if side == "left" \
                        else ring.mult(phi, s)
                    assert prod.grade == d.weight_add(lam, s.grade)
                    assert [row[r] for row in mat] == prod.vec


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


def test_schubert_matches_the_full_braid_image(ring1, ring2):
    """epsilon_w and the table of Phi_w read one row of T_w; the oracle
    applies all of T_w to x v and reads the top entry."""
    for ring, lam in ((ring1, (2,)), (ring2, (1, 0)), (ring2, (1, 1))):
        d = ring.datum
        mod = ring.module(lam)
        top = mod.distinguished["highest"]
        for w in d.all_weyl_words():
            tw = braid_word(mod, d.weyl_canonical(w))
            for phi in ring.grade_basis(lam):
                v = ring.embed_full(mod, phi)
                rep = ring.schubert(w, phi)
                assert rep["epsilon"] == la.mat_vec(tw, v)[top]
                target = d.weyl_act(tuple(reversed(d.weyl_canonical(w))), lam)
                g = d.weight_to_root(d.weight_sub(target, phi.weight))
                if g is None or any(c < 0 for c in g):
                    assert rep["table"] == {}
                    continue
                old = [la.mat_vec(tw, la.mat_vec(
                    mod.act(ring.algebra.e_word(xw)), v))[top].to_str()
                    for xw in ring.algebra.basis(g).free_words]
                assert rep["table"] == {d.root_str(g): old}


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


def test_a_repeated_product_is_computed_once(monkeypatch):
    """Products are memoized on the ring by both factors' grade, drop and
    coordinates: an equal pair asked for again is not recomputed, and the
    product equals the one a fresh ring computes."""
    computed = Counter()
    real = CoordRing._product_evaluations

    def spy(self, a, b):
        computed[(a.grade, a.gamma, tuple(a.vec),
                  b.grade, b.gamma, tuple(b.vec))] += 1
        return real(self, a, b)
    monkeypatch.setattr(CoordRing, "_product_evaluations", spy)
    ring = CoordRing(UAlgebra(preset("A2")))
    a = ring.grade_basis((1, 0))[1]
    b = ring.grade_basis((0, 1))[0]
    first = ring.mult(a, b)
    copy = ring.element(a.grade, a.gamma, list(a.vec))
    assert ring.mult(copy, b) is first
    assert ring.product_evaluations(copy, b)[2] == first.evaluations()
    assert ring.mult(b, a) is not first
    assert sorted(computed.values()) == [1, 1]
    fresh = CoordRing(UAlgebra(preset("A2")))
    assert fresh.mult(fresh.grade_basis((1, 0))[1],
                      fresh.grade_basis((0, 1))[0]) == first


def test_from_evaluations_checks_every_row(ring2):
    """The values are solved through one independent block of the
    evaluation matrix, and every row is checked: a corrupted value that
    leaves the column space raises exactly where the solve would fail."""
    one = ring2.datum.one()
    raised = 0
    for lam in [(1, 0), (1, 1), (2, 1)]:
        for gamma in sorted(ring2.factory(lam).drops):
            mat, _words, d = ring2.eval_solver(lam, gamma)
            for phi in ring2.slice_basis(lam, gamma):
                values = phi.evaluations()
                assert ring2.from_evaluations(lam, gamma, values) == phi
                for r in range(len(values)):
                    bad = list(values)
                    bad[r] = bad[r] + one
                    sol = la.solve(mat, bad)
                    if sol is None:
                        with pytest.raises(QflagError, match="inconsistent"):
                            ring2.from_evaluations(lam, gamma, bad)
                        raised += 1
                    else:
                        assert ring2.from_evaluations(lam, gamma,
                                                      bad).vec == sol
    assert raised


def _slices(ring, grades):
    for lam in grades:
        for gamma in sorted(ring.factory(lam).drops):
            mat, _words, d = ring.eval_solver(lam, gamma)
            if d:
                yield lam, gamma, mat


def test_from_evaluations_checks_rows_outside_the_block(ring2):
    """On a tall slice a value corrupted in any row outside the solved
    block still raises."""
    one = ring2.datum.one()
    checked = 0
    for lam, gamma, mat in _slices(ring2, [(1, 1), (2, 1)]):
        rows, _inv = ring2.eval_factor(lam, gamma)
        for r in sorted(set(range(len(mat))) - set(rows)):
            for phi in ring2.slice_basis(lam, gamma):
                bad = list(phi.evaluations())
                bad[r] = bad[r] + one
                with pytest.raises(QflagError, match="inconsistent"):
                    ring2.from_evaluations(lam, gamma, bad)
                checked += 1
    assert checked


def test_a_square_slice_is_solved_by_one_mat_vec(monkeypatch, ring2):
    """Every slice is solved by one product with the inverse of its block;
    a square slice has no row outside the block and checks none, a tall
    one checks each other row once."""
    mat_vecs, rows_read = [], [0]
    real_mat_vec, real_row_dot = la.mat_vec, la.row_dot

    def row_dot(row, v):
        rows_read[0] += 1
        return real_row_dot(row, v)
    monkeypatch.setattr(la, "mat_vec", lambda a, v:
                        mat_vecs.append(len(a)) or real_mat_vec(a, v))
    monkeypatch.setattr(la, "row_dot", row_dot)
    shapes = Counter()
    for lam, gamma, mat in _slices(ring2, [(1, 0), (1, 1), (2, 1)]):
        values = ring2.slice_basis(lam, gamma)[0].evaluations()
        rows, _inv = ring2.eval_factor(lam, gamma)
        mat_vecs.clear()
        rows_read[0] = 0
        ring2.from_evaluations(lam, gamma, values)
        assert mat_vecs == [len(rows)]
        # d products for the solve, one per row outside the block
        assert rows_read[0] == len(mat)
        shapes["square" if len(rows) == len(mat) else "tall"] += 1
    assert shapes["square"] and shapes["tall"]


def transpose_route_factor(mat):
    """(rows, inverse) from the row reduction of the transpose: the factor
    of every shape before square slices were inverted whole."""
    _ech, rows = la.rref(la.transpose(mat))
    return rows, la.inverse([mat[r] for r in rows])


def test_eval_factor_inverts_a_square_slice_whole(ring2):
    shapes = Counter()
    for lam in [(1, 0), (1, 1), (2, 1), (2, 2)]:
        for gamma in sorted(ring2.factory(lam).drops):
            mat, _words, d = ring2.eval_solver(lam, gamma)
            rows, inv = ring2.eval_factor(lam, gamma)
            old_rows, old_inv = transpose_route_factor(mat)
            assert rows == old_rows and la.mat_eq(inv, old_inv)
            shapes["square" if len(mat) == d else "tall"] += 1
    assert shapes["square"] and shapes["tall"]


def test_a_singular_square_slice_takes_the_transpose_route(monkeypatch, alg1,
                                                           ring1, pairing1):
    """A singular square evaluation matrix gets the transpose route's
    factor, is no stable slice, and raises what that factor raises."""
    d = alg1.datum
    one, q = d.one(), QScalar.q_power(1, d.l0)
    singular = [[one, q], [q.inverse(), one]]
    new, old = CoordRing(alg1), CoordRing(alg1)
    for ring in (new, old):
        monkeypatch.setattr(ring, "eval_solver",
                            lambda lam, gamma: (singular, [(1,), (1,)], 2))
    monkeypatch.setattr(old, "eval_factor", lambda lam, gamma:
                        transpose_route_factor(singular))
    rows, inv = new.eval_factor((3,), (1,))
    old_rows, old_inv = transpose_route_factor(singular)
    assert rows == old_rows == [0] and la.mat_eq(inv, old_inv)

    def outcome(call):
        try:
            return call().vec
        except (ArithmeticError, QflagError) as exc:
            return type(exc)
    for values in ([q, one], [one, q], [one, one]):
        assert outcome(lambda: new.from_evaluations((3,), (1,), values)) \
            == outcome(lambda: old.from_evaluations((3,), (1,), values))
    plus = theta_formula(pairing1, 4).plus
    for ring in (new, old):
        direct = ThetaDirect(ring1, plus, (1,))
        direct.ring = ring
        assert not direct._gram_ok((3,), (1,))


def sweedler_product_evaluations(ring, a, b):
    """<ab, x_w> for each plus-part basis word w by walking the coproduct:
    e_i acts on v_a (x) v_b as e_i (x) 1 + k_i (x) e_i, one branch per
    letter and side, through the slice matrices of both factors."""
    datum = ring.datum
    grade = datum.weight_add(a.grade, b.grade)
    gamma = tuple(x + y for x, y in zip(a.gamma, b.gamma))
    faca, facb = ring.factory(a.grade), ring.factory(b.grade)
    values = []
    for w in ring._words(gamma):
        branches = [(a.gamma, a.vec, b.gamma, b.vec, datum.one())]
        for i in reversed(w):
            nxt = []
            for (ga, va, gb, vb, c) in branches:
                res = faca.apply_word(ga, va, "e", (i,))
                if res is not None:
                    nxt.append((*res, gb, vb, c))
                res = facb.apply_word(gb, vb, "e", (i,))
                if res is not None:
                    tw = datum.q_pair(datum.alpha(i),
                                      datum.weight_sub_root(a.grade, ga))
                    nxt.append((ga, va, *res, c * tw))
            branches = nxt
        val = datum.zero()
        for (ga, va, gb, vb, c) in branches:
            if not any(ga) and not any(gb):
                val = val + c * va[0] * vb[0]
        values.append(val)
    return grade, gamma, values


def oracle_factors(ring, grades):
    """Every slice-basis element of the given grades, a combination of
    each slice's basis, and the extremal elements of those grades."""
    datum = ring.datum
    out = []
    for lam in grades:
        for g in sorted(ring.factory(lam).drops, key=lambda g: (sum(g), g)):
            basis = ring.slice_basis(lam, g)
            out.extend(basis)
            if len(basis) > 1:
                vec = [datum.scalar(k + 1) * datum.q_power(k)
                       for k in range(len(basis))]
                out.append(ring.element(lam, g, vec))
        out.extend(ring.extremal(w, lam) for w in datum.all_weyl_words())
    return out


@pytest.mark.parametrize("typ,grades,height", [
    ("A1", [(0,), (1,), (2,), (3,)], None),
    ("A2", [(0, 0), (1, 0), (0, 1), (1, 1)], None),
    ("B2", [(0, 0), (1, 0), (0, 1)], None),
    # the walk takes minutes on the deepest G2 pairs: products up to height 8
    ("G2", [(0, 1)], 8),
])
def test_shuffle_products_match_the_sweedler_walk(monkeypatch, typ, grades,
                                                  height):
    """On every ordered pair of factors, the shuffle route's evaluations
    equal the coproduct walk's exactly, and no slice matrix is applied."""
    ring = CoordRing(UAlgebra(preset(typ)))
    factors = oracle_factors(ring, grades)
    expected = {(i, j): sweedler_product_evaluations(ring, a, b)
                for i, a in enumerate(factors)
                for j, b in enumerate(factors)
                if height is None or sum(a.gamma) + sum(b.gamma) <= height}
    applied = []
    real = SimpleFactory.apply_word
    monkeypatch.setattr(SimpleFactory, "apply_word", lambda *args: (
        applied.append(args[1:]) or real(*args)))
    for (i, j), want in expected.items():
        assert ring.product_evaluations(factors[i], factors[j]) == want, \
            (typ, i, j)
    assert applied == []
    assert sum(any(not v.is_zero() for v in want[2])
               for want in expected.values()) > len(factors)


def columnwise_mult_matrix(ring, lam, phi, side, gamma=None):
    """The per-column route: phi times each basis vector ('left': phi*x,
    'right': x*phi) of the full module of grade lam, or of its
    (lam, gamma)-slice when gamma is given, one product per column."""
    if gamma is not None:
        return la.transpose([ring.side_mult(phi, x, side).vec
                             for x in ring.slice_basis(lam, gamma)])
    src = ring.module(lam)
    tgt = ring.module(ring.datum.weight_add(lam, phi.grade))
    return la.transpose([
        ring.embed_full(tgt, ring.side_mult(
            phi, ring.slice_element(src, idx), side))
        for idx in range(src.dim)])


def scaled_factors(ring, lam):
    """The grade-lam slice-basis elements; the first two of them scaled by
    q^k, by an integer and by a non-polynomial fraction; and two-coordinate
    combinations in every slice of dimension at least 2, one with first
    coordinate 1 and one without."""
    d = ring.datum
    q = d.q_power(1)
    scales = [d.q_power(-2), d.q_power(3), d.scalar(-5),
              d.scalar(3) / (q + q.inverse())]
    basis = ring.grade_basis(lam)
    out = basis + [phi.scale(c) for phi in basis[:2] for c in scales]
    for g in sorted(ring.factory(lam).drops, key=by_height):
        dim = ring.factory(lam).slice_dim(g)
        if dim < 2:
            continue
        for first, second in ((d.one(), scales[3]), (d.scalar(2), q)):
            vec = [first, second] + [d.zero()] * (dim - 2)
            out.append(ring.element(lam, g, vec))
    return out


@pytest.mark.parametrize("typ", ["A2", "B2"])
def test_ray_matrices_match_the_columnwise_route(typ):
    """full_mult_matrix and mult_matrix, read from the ray's matrix and
    scaled, equal the element's own products column by column, computed
    on a ring of their own: on the grades of the default window (1, 1),
    both sides, for basis elements, their multiples and two-coordinate
    combinations."""
    alg = UAlgebra(preset(typ))
    ring, oracle = CoordRing(alg), CoordRing(alg)
    d = ring.datum
    window = sorted(box((1, 1)), key=by_height)
    seen = Counter()
    for g in window[1:]:
        for phi in scaled_factors(ring, g):
            for lam in window:
                if d.weight_add(lam, g) not in window:
                    continue
                for side in ("left", "right"):
                    assert ring.full_mult_matrix(lam, phi, side) == \
                        columnwise_mult_matrix(oracle, lam, phi, side)
                    for gamma in sorted(ring.factory(lam).drops):
                        assert ring.mult_matrix(lam, gamma, phi, side) == \
                            columnwise_mult_matrix(oracle, lam, phi, side,
                                                   gamma)
                seen[sum(not x.is_zero() for x in phi.vec)] += 1
    assert seen[1] and seen[2]


def test_a_scaled_element_reads_its_rays_matrix(monkeypatch):
    """Once a ray's matrix is built, a multiple's matrix is that matrix
    scaled, with no product evaluated or solved again; the ray itself gets
    the very matrix back."""
    ring = CoordRing(UAlgebra(preset("A2")))
    d = ring.datum
    q = d.q_power(1)
    lam, gamma = (0, 1), (1, 1)
    rays = [ring.grade_basis((1, 0))[1],
            ring.element((1, 1), (1, 1), [d.one(), q])]
    built = {}
    for phi in rays:
        for side in ("left", "right"):
            built[phi.grade, side] = (
                ring.full_mult_matrix(lam, phi, side),
                ring.mult_matrix(lam, gamma, phi, side))
    calls = []
    for name in ("_product_evaluations", "from_evaluations"):
        real = getattr(CoordRing, name)
        monkeypatch.setattr(CoordRing, name, lambda self, *args, real=real,
                            name=name: calls.append(name) or real(self, *args))
    for phi in rays:
        for side in ("left", "right"):
            full, part = built[phi.grade, side]
            assert ring.full_mult_matrix(lam, phi, side) is full
            assert ring.mult_matrix(lam, gamma, phi, side) is part
            for c in (q.inverse(), d.scalar(-2), d.scalar(3) / (q + d.one())):
                assert ring.full_mult_matrix(lam, phi.scale(c), side) == \
                    la.mat_scale(full, c)
                assert ring.mult_matrix(lam, gamma, phi.scale(c), side) == \
                    la.mat_scale(part, c)
    assert calls == []
