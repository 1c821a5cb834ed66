from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

from qflag import cartan
from qflag.cartan import CartanDatum, CharacterPoly, box, by_height, \
    kostant_dim, kostant_table, preset, verma_character, weyl_character, \
    weyl_multiplicity, within
from qflag.errors import DominanceError, ParseError
from qflag.scalars import QScalar


def test_presets_and_l0(a1, a2, g2):
    assert a1.l0 == 2 and a2.l0 == 3
    assert preset("B2").l0 == 1 and g2.l0 == 1
    assert preset("C2").cartan == preset("B2").cartan
    with pytest.raises(ParseError):
        preset("E8")


def test_bilinear_form_examples(a1, a2):
    alpha = a1.alpha(0)
    assert a1.pair_ww(alpha, alpha) == Fraction(2)
    assert a1.pair_ww((1,), (1,)) == Fraction(1, 2)
    assert a2.pair_ww((1, 0), (0, 1)) == Fraction(1, 3)


def test_form_is_weyl_invariant(a2):
    for w in a2.all_weyl_words():
        for lam in [(1, 0), (2, -1), (1, 1)]:
            for mu in [(0, 1), (-1, 2)]:
                assert a2.pair_ww(a2.weyl_act(w, lam), a2.weyl_act(w, mu)) \
                    == a2.pair_ww(lam, mu)


def test_weyl_act_examples(a1, a2):
    assert a1.weyl_act((), (5,)) == (5,)
    assert a1.weyl_act((0,), (0,), shifted=True) == (-2,)
    assert a2.weyl_act(a2.longest_word(), (1, 0)) == (0, -1)


def test_weyl_group_structure(a2, g2):
    assert len(a2.weyl_elements()) == 6
    assert len(g2.weyl_elements()) == 12
    assert a2.weyl_canonical((0, 1, 0)) == a2.weyl_canonical((1, 0, 1))
    assert a2.weyl_length((0, 0)) == 0
    # length equals the number of positive roots sent negative
    for w in a2.all_weyl_words():
        neg = 0
        for gamma in a2.positive_roots():
            img = a2.weyl_act(w, a2.root_to_weight(gamma))
            coords = [img[i] for i in range(2)]
            # negative root iff all alpha-coordinates of the image <= 0
            g = a2.weight_to_root(img)
            if all(c <= 0 for c in g):
                neg += 1
        assert neg == len(w)


def test_positive_roots(a2, g2):
    assert set(a2.positive_roots()) == {(1, 0), (0, 1), (1, 1)}
    assert len(g2.positive_roots()) == 6
    assert len(preset("B2").positive_roots()) == 4


def test_weyl_character_examples(a1, a2):
    assert weyl_character(a1, (0,)).terms == {(0,): 1}
    assert weyl_character(a1, (2,)).terms == {(2,): 1, (0,): 1, (-2,): 1}
    assert weyl_character(a2, (1, 0)).terms == {
        (1, 0): 1, (-1, 1): 1, (0, -1): 1}
    with pytest.raises(DominanceError):
        weyl_character(a1, (-1,))


def test_weyl_character_sl2_dimensions(a1):
    for n in range(7):
        ch = weyl_character(a1, (n,))
        assert len(ch.terms) == n + 1
        assert all(c == 1 for c in ch.terms.values())


def test_weyl_character_weyl_invariant(a2):
    ch = weyl_character(a2, (1, 1))
    for w in a2.all_weyl_words():
        assert {a2.weyl_act(w, lam): c for lam, c in ch.terms.items()} \
            == ch.terms


def test_kostant_examples(a2):
    assert kostant_dim(a2, (0, 0)) == 1
    assert kostant_dim(a2, (1, 1)) == 2
    assert kostant_dim(a2, (2, 1)) == 2


def test_verma_character(a1, a2):
    ch = verma_character(a1, (3,), (3,))
    assert [ch.coeff(a1.weight_sub_root((3,), (k,))) for k in range(4)] \
        == [1, 1, 1, 1]
    ch2 = verma_character(a2, (0, 0), (1, 1))
    assert ch2.coeff(a2.weight_sub_root((0, 0), (1, 1))) == 2
    assert verma_character(a1, (5,), (0,)).terms == {(5,): 1}


def test_verma_character_matches_kostant(a2):
    ch = verma_character(a2, (0, 0), (2, 2))
    for g in [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]:
        assert ch.coeff(a2.weight_sub_root((0, 0), g)) == kostant_dim(a2, g)


def test_weight_grammar(a2):
    assert a2.parse_weight("[1,-2]") == (1, -2)
    assert a2.parse_root("<1,0>") == (1, 0)
    assert a2.weight_str((1, -2)) == "[1,-2]"
    with pytest.raises(ParseError):
        a2.parse_weight("(1,2)")


def test_character_arithmetic(a1):
    e0 = CharacterPoly.monomial(a1, (0,))
    e2 = CharacterPoly.monomial(a1, (2,))
    assert (e0 + e2) * e2 == CharacterPoly(a1, {(2,): 1, (4,): 1})
    assert (e2 - e2).terms == {}


def _nested_loops(hi, lo):
    points = [()]
    for a, b in zip(lo, hi):
        points = [p + (c,) for p in points for c in range(a, b + 1)]
    return points


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_box_matches_nested_loops(rank):
    hi = (3, 2, 1)[:rank]
    for lo in [None, (0, 0, 0)[:rank], (-1, 1, -2)[:rank], (4, 0, 0)[:rank]]:
        for height in [None, -1, 0, 2, 5]:
            expected = [g for g in _nested_loops(hi, lo or (0,) * rank)
                        if height is None or sum(g) <= height]
            assert box(hi, lo=lo, height=height) == expected


def test_by_height_orders_by_sum_then_lexicographically():
    points = box((2, 2))
    assert sorted(points, key=by_height) == [
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (1, 2), (2, 1),
        (2, 2)]


def test_within_is_the_box_test_of_a_sum():
    window = (2, 1)
    for n in (1, 2, 3):
        for grades in product(box(window), repeat=n):
            total = tuple(map(sum, zip(*grades)))
            assert within(window, *grades) == (total in box(window))
    assert within((0, 0)) and not within((1,), (1,), (1,))


PRESETS = ("A1", "A2", "B2", "G2")


def _weyl_character_by_division(datum, lam):
    """The alternating sum over the Weyl group divided by the Weyl
    denominator, by exact long division led by the (rho, w)-largest term."""
    num = CharacterPoly(datum)
    for word in datum.all_weyl_words():
        w_lam = datum.weyl_act(word, lam, shifted=True)
        num = num + CharacterPoly.monomial(datum, w_lam, datum.weyl_det(word))
    one = CharacterPoly.monomial(datum, datum.zero_weight)
    den = one
    for alpha in datum.positive_roots():
        den = den * (one - CharacterPoly.monomial(
            datum, datum.weight_neg(datum.root_to_weight(alpha))))
    quot = CharacterPoly(datum)
    rem = num
    while rem.terms:
        lead = max(rem.terms, key=lambda w: (datum.pair_ww(w, datum.rho), w))
        c = CharacterPoly.monomial(datum, lead, rem.terms[lead])
        quot = quot + c
        rem = rem - c * den
    return quot


@pytest.mark.parametrize("name", PRESETS)
def test_weyl_character_matches_long_division(name):
    datum = preset(name)
    bound = {"A1": (6,), "A2": (3, 3), "B2": (3, 3), "G2": (2, 2)}[name]
    for lam in box(bound):
        assert weyl_character(datum, lam) == \
            _weyl_character_by_division(datum, lam), lam


def _weyl_character_by_verma_windows(datum, lam):
    """ch V(lam) as sum_w det(w) ch M(w.lam): one Kostant table for the box
    of lam - w0 lam, each Verma character read off it through its own
    window; {drop: multiplicity}, zeros included."""
    low = datum.lowest_drop(lam)
    table = kostant_table(datum, low)
    by_drop = {}
    for word in datum.all_weyl_words():
        w_lam = datum.weyl_act(word, lam, shifted=True)
        drop = datum.weight_to_root(datum.weight_sub(lam, w_lam))
        window = tuple(a - b for a, b in zip(low, drop))
        if any(c < 0 for c in window):
            continue
        for g in box(window):
            d = tuple(a + b for a, b in zip(drop, g))
            by_drop[d] = by_drop.get(d, 0) + datum.weyl_det(word) * table[g]
    return by_drop


@pytest.mark.parametrize("name", PRESETS)
def test_weyl_multiplicity_matches_the_verma_character_sum(name):
    datum = preset(name)
    bound = {"A1": (6,), "A2": (3, 3), "B2": (3, 3), "G2": (2, 2)}[name]
    for lam in box(bound):
        old = _weyl_character_by_verma_windows(datum, lam)
        low = datum.lowest_drop(lam)
        assert set(old) == set(box(low))
        assert {g: weyl_multiplicity(datum, lam, g) for g in old} == old
        # off the box of V(lam)'s drops, and below zero, the space is zero
        for i in range(datum.rank):
            past = tuple(c + (k == i) for k, c in enumerate(low))
            below = tuple(-(k == i) for k in range(datum.rank))
            assert weyl_multiplicity(datum, lam, past) == 0
            assert weyl_multiplicity(datum, lam, below) == 0


def test_weight_to_root(a1, a2, g2):
    assert a2.weight_to_root((2, -1)) == (1, 0)
    assert a2.weight_to_root((0, 0)) == (0, 0)
    # outside the root lattice
    assert a2.weight_to_root((1, 0)) is None
    assert a1.weight_to_root((1,)) is None
    assert preset("B2").weight_to_root((0, 1)) is None
    # G2: the root lattice is the weight lattice
    assert g2.weight_to_root((1, 0)) == (2, 3)


@pytest.mark.parametrize("name", PRESETS)
def test_weight_to_root_round_trip(name):
    datum = preset(name)
    n = datum.rank
    for gamma in box((3,) * n, lo=(-3,) * n):
        assert datum.weight_to_root(datum.root_to_weight(gamma)) == gamma
    # a weight is in the root lattice iff it has root coordinates (those
    # of |w| <= 2 are at most 10 in size on every preset)
    lattice = {datum.root_to_weight(g) for g in box((10,) * n, lo=(-10,) * n)}
    for w in box((2,) * n, lo=(-2,) * n):
        assert (datum.weight_to_root(w) is not None) == (w in lattice), w


@pytest.mark.parametrize("name", PRESETS)
def test_drop_is_the_root_difference_in_the_positive_cone(name):
    datum = preset(name)
    n = datum.rank
    seen = Counter()
    for hi in box((2,) * n, lo=(-2,) * n):
        for lo in box((2,) * n, lo=(-2,) * n):
            g = datum.weight_to_root(datum.weight_sub(hi, lo))
            old = g if g is not None and all(c >= 0 for c in g) else None
            assert datum.drop(hi, lo) == old, (hi, lo)
            seen["off the lattice" if g is None else
                 "below zero" if old is None else "in the cone"] += 1
    # the G2 weight lattice is its root lattice
    assert len(seen) == (2 if name == "G2" else 3)


@pytest.mark.parametrize("name", PRESETS)
def test_lowest_drop(name):
    datum = preset(name)
    w0 = datum.longest_word()
    for lam in box((2,) * datum.rank):
        low = datum.lowest_drop(lam)
        assert low == datum.weight_to_root(
            datum.weight_sub(lam, datum.weyl_act(w0, lam)))
        # the deepest drop among the weights of V(lam)
        drops = [datum.weight_to_root(datum.weight_sub(lam, w))
                 for w in weyl_character(datum, lam).terms]
        assert low == max(drops, key=sum)
        assert all(a <= b for d in drops for a, b in zip(d, low))
    assert preset("A1").lowest_drop((4,)) == (4,)
    assert preset("G2").lowest_drop((0, 1)) == (2, 4)


def test_linked(a1, a2):
    assert a1.linked((0,), (0,)) == ()
    assert a1.linked((0,), (-2,)) == (0,)
    assert a1.linked((2,), (0,)) is None
    # the first word by length, then lexicographically, with w.a = b
    for a in box((1, 1), lo=(-1, -1)):
        for b in box((1, 1), lo=(-2, -2)):
            word = a2.linked(a, b)
            hits = [w for w in a2.all_weyl_words()
                    if a2.weyl_act(w, a, shifted=True) == b]
            assert word == (hits[0] if hits else None)
    # rho-shifted orbit of the dominant weight (1,0): six distinct weights
    orbit = {a2.weyl_act(w, (1, 0), shifted=True) for w in a2.all_weyl_words()}
    assert len(orbit) == 6
    assert all(a2.linked((1, 0), b) is not None for b in orbit)


# -- the Kostant table against the expansions it replaced ------------------

def _series_expansion(datum, depth):
    """prod_{alpha>0} (1 + e^-alpha + e^-2alpha + ...) cut to drops <= depth,
    as a map drop -> coefficient, expanded one geometric series at a time."""
    series = {datum.zero_root: 1}
    for alpha in datum.positive_roots():
        new = {}
        for g, c in series.items():
            k = 0
            while True:
                gg = tuple(a + k * b for a, b in zip(g, alpha))
                if any(x > d for x, d in zip(gg, depth)):
                    break
                new[gg] = new.get(gg, 0) + c
                k += 1
        series = new
    return series


def _kostant_by_recursion(datum, gamma):
    """Multisets of positive roots summing to gamma, counted by the number
    of copies of each root in turn."""
    roots = datum.positive_roots()

    @lru_cache(maxsize=None)
    def count(rest, idx):
        if not any(rest):
            return 1
        if idx >= len(roots):
            return 0
        total = 0
        while all(c >= 0 for c in rest):
            total += count(rest, idx + 1)
            rest = tuple(a - b for a, b in zip(rest, roots[idx]))
        return total

    return count(tuple(gamma), 0)


@pytest.mark.parametrize("name", PRESETS)
def test_kostant_table_matches_series_expansion(name):
    datum = preset(name)
    lam = datum.rho
    for depth in box((4,) * datum.rank):
        series = _series_expansion(datum, depth)
        assert kostant_table(datum, depth) == series
        expected = {datum.weight_sub_root(lam, g): c
                    for g, c in series.items()}
        assert verma_character(datum, lam, depth).terms == expected
        assert kostant_dim(datum, depth) == _kostant_by_recursion(datum, depth)


def test_kostant_table_matches_series_expansion_g2_largest_window(g2):
    # lowest_drop((6,3)): the largest Kostant box that suite-sweep builds
    depth = (30, 48)
    assert g2.lowest_drop((6, 3)) == depth
    assert kostant_table(g2, depth) == _series_expansion(g2, depth)


def test_weyl_character_expands_once_per_lam(monkeypatch):
    datum = preset("B2")
    built = []
    count = cartan._kostant_count

    def counting(d, gamma):
        built.append(gamma)
        return count(d, gamma)

    monkeypatch.setattr(cartan, "_kostant_count", counting)
    first = weyl_character(datum, (2, 1))
    assert built == box(datum.lowest_drop((2, 1)))
    assert weyl_character(datum, (2, 1)) is first
    assert built == box(datum.lowest_drop((2, 1)))


# -- the Weyl dimension formula, an oracle independent of Kostant ----------

def _weyl_dimension(datum, lam):
    """dim V(lam) = prod_{alpha>0} (lam+rho, alpha) / (rho, alpha)."""
    shifted = datum.weight_add(lam, datum.rho)
    out = Fraction(1)
    for alpha in datum.positive_roots():
        a = datum.root_to_weight(alpha)
        out *= datum.pair_ww(shifted, a) / datum.pair_ww(datum.rho, a)
    assert out.denominator == 1
    return int(out)


# the G2 highest weights whose characters suite-sweep builds
_G2_SWEEP_WEIGHTS = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2),
                     (3, 1), (2, 3), (3, 2), (3, 3), (4, 2), (3, 4), (4, 3),
                     (4, 4), (5, 3), (5, 4), (6, 3)]


@pytest.mark.parametrize("name,weights", [
    ("A2", box((3, 3))), ("B2", box((3, 3))), ("G2", _G2_SWEEP_WEIGHTS)])
def test_weyl_character_matches_weyl_dimension_formula(name, weights):
    datum = preset(name)
    for lam in weights:
        assert weyl_character(datum, lam).total() == \
            _weyl_dimension(datum, lam), lam


def test_weyl_dimension_examples(a2, g2):
    assert _weyl_dimension(a2, (1, 1)) == 8
    assert _weyl_dimension(g2, (0, 1)) == 7
    assert _weyl_dimension(g2, (1, 0)) == 14


@pytest.mark.parametrize("name,weights", [
    ("A2", box((2, 2))), ("B2", box((2, 2))), ("G2", _G2_SWEEP_WEIGHTS)])
def test_each_kostant_count_is_computed_once_per_datum(monkeypatch, name,
                                                       weights):
    datum = preset(name)
    built = Counter()
    count = cartan._kostant_count

    def counting(d, gamma):
        built[(id(d), gamma)] += 1
        return count(d, gamma)

    monkeypatch.setattr(cartan, "_kostant_count", counting)
    # the readers of the counts, in the order the suites reach them: Weyl
    # characters, then Verma characters and dimensions at smaller depths
    for lam in weights:
        assert weyl_character(datum, lam).total() == \
            _weyl_dimension(datum, lam), lam
    depths = box((3,) * datum.rank)
    for depth in depths:
        expected = _series_expansion(datum, depth)
        assert kostant_table(datum, depth) == expected
        assert verma_character(datum, datum.rho, depth).terms == {
            datum.weight_sub_root(datum.rho, g): c
            for g, c in expected.items()}
        assert kostant_dim(datum, depth) == expected[depth]
    assert kostant_dim(datum, (4,) * datum.rank) == \
        _kostant_by_recursion(datum, (4,) * datum.rank)
    assert set(built.values()) == {1}
    lows = [datum.lowest_drop(lam) for lam in weights]
    assert {g for _d, g in built} == {
        g for depth in lows + depths + [(4,) * datum.rank] for g in box(depth)}


# -- the integer form table against the form on simple roots ---------------

# a B3-type symmetrizable matrix: rank 3, symmetrizers (2, 2, 1), l0 = 2
_CUSTOM = ((2, -1, 0), (-1, 2, -1), (0, -2, 2))


def test_custom_datum_has_l0_above_one():
    datum = CartanDatum(_CUSTOM)
    assert datum.symmetrizers == (2, 2, 1) and datum.l0 == 2


def _reference_form(datum, lam, mu):
    """(lam, mu) = sum_j d_j lam_j c_j with mu = sum_j c_j alpha_j, since
    (lam, alpha_j) = d_j lam_j; c solves A c = mu over Q."""
    n = datum.rank
    aug = [[Fraction(datum.cartan[r][j]) for j in range(n)] + [Fraction(mu[r])]
           for r in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col] / aug[col][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    c = [aug[j][n] / aug[j][j] for j in range(n)]
    return sum(datum.d(j) * lam[j] * c[j] for j in range(n))


@pytest.mark.parametrize("datum", [preset(n) for n in PRESETS]
                         + [CartanDatum(_CUSTOM)], ids=PRESETS + ("B3",))
def test_pair_l0_and_q_pair_match_rational_form(datum):
    n = datum.rank
    weights = box((2,) * n, lo=(-2,) * n) if n < 3 else \
        box((1,) * n, lo=(-1,) * n)
    for lam in weights:
        for mu in weights:
            form = _reference_form(datum, lam, mu)
            assert datum.pair_l0(lam, mu) == datum.l0 * form
            assert datum.pair_ww(lam, mu) == form
            assert datum.q_pair(lam, mu) == QScalar.q_power(form, datum.l0)


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_zero_and_one_are_shared_per_datum(name):
    datum = preset(name)
    assert datum.zero() is datum.zero() and datum.zero().is_zero()
    assert datum.one() is datum.one() and datum.one().is_one()
    assert datum.zero().l0 == datum.one().l0 == datum.l0
