import pytest

from qflag import linalg as la
from qflag.bimodule import EBimodule, key_lemma_characters
from qflag.cartan import preset, weyl_character
from qflag.coordring import CoordRing
from qflag.enveloping import UAlgebra
from qflag.errors import DegreeCapError, QflagError
from qflag.rmatrix import DrinfeldPairing


@pytest.fixture(scope="module")
def e1(ring1, pairing1):
    return EBimodule(ring1, pairing1, (1,), (2,))


@pytest.fixture(scope="module")
def e2(ring2, pairing2):
    return EBimodule(ring2, pairing2, (1, 0), (1, 1))


def test_unit_identifications(monkeypatch, e1, e2, ring2, pairing2):
    assert e1.unit_check()
    assert e2.unit_check()
    # a unit identification that is not the identity is caught
    real = EBimodule.eta
    two = ring2.datum.scalar(2)
    monkeypatch.setattr(EBimodule, "eta", lambda self, lam: la.mat_scale(
        real(self, lam), two) if not any(lam) else real(self, lam))
    assert not EBimodule(ring2, pairing2, (1, 0), (1, 1)).unit_check()


def test_trivial_coefficient_module(ring1, pairing1):
    e0 = EBimodule(ring1, pairing1, (0,), (1,))
    # left and right actions coincide on the trivial coefficient module
    for phi in ring1.grade_basis((1,)):
        left = e0.left_action(phi, (0,))
        right = e0.right_action(phi, (0,))
        assert left == right


def test_bimodule_axiom(e1, e2):
    assert e1.bimodule_check(grades=[(1,)])["pass"]
    assert e2.bimodule_check(grades=[(1, 0), (0, 1)])["pass"]


def test_left_action_mixes_through_r_check(ring1, pairing1, alg1):
    # acting by a grade-w element on 1 (x) A(0) lands in V (x) A(w) with
    # genuinely mixed components
    e = EBimodule(ring1, pairing1, (1,), (2,))
    phi = ring1.grade_basis((1,))[1]
    m = e.left_action(phi, (0,))
    nonzero = [(r, c) for r in range(len(m)) for c in range(len(m[0]))
               if not m[r][c].is_zero()]
    assert len(nonzero) >= 2


def test_layer_ordering_convention(e2):
    d = e2.datum
    # nu_i - nu_j dominant implies i >= j; first layer lowest, last highest
    nus = e2.nu
    r = len(nus)
    for i in range(r):
        for j in range(r):
            diff = d.weight_sub(nus[i], nus[j])
            if d.is_dominant(diff) and any(diff):
                assert i > j
    w0 = d.longest_word()
    assert nus[0] == d.weyl_act(w0, e2.mu)
    assert nus[-1] == e2.mu


def test_flag_stability(e1, e2):
    assert e1.flag_stability_check((1,), (1,))
    assert e2.flag_stability_check((1, 0), (1, 0))
    assert e2.flag_stability_check((0, 1), (1, 0))


def test_commutation_scalars(e1, ring1):
    d = e1.datum
    for phi in ring1.grade_basis((1,)):
        for k, nu in enumerate(e1.layer_weights):
            s = e1.commutation_scalar(k, phi, (1,))
            assert s == d.q_pair(tuple(-x for x in nu), phi.weight)


def test_commutation_scalar_multiplicative(e1, ring1):
    # the exponent is bilinear: scalar(phi psi) = scalar(phi) scalar(psi)
    phi = ring1.grade_basis((1,))[0]
    psi = ring1.grade_basis((1,))[1]
    prod = ring1.mult(phi, psi)
    s_phi = e1.commutation_scalar(0, phi, (1,))
    # product has grade 2w: scalar computed against its weight directly
    d = e1.datum
    expected = d.q_pair(tuple(-x for x in e1.layer_weights[0]), prod.weight)
    assert expected == s_phi * d.q_pair(
        tuple(-x for x in e1.layer_weights[0]), psi.weight)


def test_trivial_layer_scalar(ring2, pairing2):
    # a zero-weight layer of the adjoint module commutes with scalar one
    e = EBimodule(ring2, pairing2, (1, 1), (1, 1))
    zero_layers = [k for k, nu in enumerate(e.layer_weights)
                   if nu == (0, 0)]
    assert zero_layers
    phi = ring2.grade_basis((1, 0))[0]
    for k in zero_layers:
        assert e.commutation_scalar(k, phi, (1, 0)).is_one()


def test_lambda0_minimal(e2):
    d = e2.datum
    lam0 = e2.lambda0()
    for nu in e2.vmod.index_weights:
        assert d.is_dominant(d.weight_add(lam0, nu))
    # minimality: dropping any coordinate breaks dominance somewhere
    for i in range(d.rank):
        if lam0[i] == 0:
            continue
        smaller = tuple(c - (1 if j == i else 0)
                        for j, c in enumerate(lam0))
        assert any(not d.is_dominant(d.weight_add(smaller, nu))
                   for nu in e2.vmod.index_weights)


def test_layer_characters(e1, e2):
    d1 = e1.datum
    # mu = 2w on A1: three layers with highest weights lam-2w, lam, lam+2w
    from qflag.rmatrix import DrinfeldPairing
    assert e1.total_character_check((2,))
    e_big = EBimodule(e1.ring, e1.pairing, (2,), (2,))
    lam = (2,)
    tops = [d1.weight_add(lam, nu) for nu in e_big.nu]
    assert tops == [(0,), (2,), (4,)]
    assert e_big.total_character_check(lam)
    assert e2.total_character_check((1, 1))
    with pytest.raises(QflagError):
        e2.layer_character(0, (0, 0))  # below the dominance shift


def test_key_lemma_instances(ring1, ring2, pairing1, pairing2):
    rep = key_lemma_characters(ring1, pairing1, (0,), (2,))
    assert rep["key2"]["precondition"] and rep["key2"]["iff_holds"]
    assert rep["key3"]["precondition"] and rep["key3"]["iff_holds"]
    # layer reports carry linkage witnesses
    assert rep["key2"]["layers"][0]["linked"]
    assert rep["key2"]["layers"][0]["witness"] is not None
    rep2 = key_lemma_characters(ring2, pairing2, (1, 0), (1, 1))
    assert rep2["key3"]["iff_holds"] and rep2["key2"]["iff_holds"]


def test_key_lemma_negative_control(ring1, pairing1):
    # lam + rho outside the dominant cone: the key2 iff may fail and must
    # be reported, not asserted
    rep = key_lemma_characters(ring1, pairing1, (-2,), (2,))
    assert not rep["key2"]["precondition"]
    assert not rep["key2"]["iff_holds"]
    assert rep["pass"]  # reported, does not fail the run


def test_trivial_mu_single_layer(ring1, pairing1):
    rep = key_lemma_characters(ring1, pairing1, (1,), (0,))
    assert len(rep["key2"]["layers"]) == 1
    assert rep["key2"]["iff_holds"] and rep["key3"]["iff_holds"]


def _dense_left_action(e, phi, lam):
    """left_action with eta(lam) inverted densely."""
    lm = e.ring.full_mult_matrix(lam, phi, "left")
    lv = la.kron(lm, la.identity(e.vmod.dim, e.datum.l0))
    tgt = e.datum.weight_add(lam, phi.grade)
    return la.mat_mul(e.eta(tgt), la.mat_mul(lv, la.inverse(e.eta(lam))))


@pytest.mark.parametrize("typ, mu, cutoff", [("A1", (1,), (2,)),
                                             ("A2", (1, 0), (1, 1)),
                                             ("B2", (1, 0), (1, 1))],
                         ids=["A1", "A2", "B2"])
def test_eta_inv_is_the_inverse_of_eta(typ, mu, cutoff):
    """eta(lam)^-1, read from R-inverse's rows after the flip, is the
    dense inverse of eta(lam) on every grade of the bimodule suite's
    window, and eta_inv(lam) eta(lam) = 1."""
    alg = UAlgebra(preset(typ))
    e = EBimodule(CoordRing(alg), DrinfeldPairing(alg), mu, cutoff)
    for lam in e.grades:
        inv, eta = e.eta_inv(lam), e.eta(lam)
        assert inv == la.inverse(eta), (typ, lam)
        assert la.is_identity(la.mat_mul(inv, eta))


def test_left_action_is_formed_once_per_pair(monkeypatch, ring2, pairing2):
    """left_action equals the dense route, and a second read of a
    (phi, lam) pair forms no product: the first matrix comes back."""
    e = EBimodule(ring2, pairing2, (1, 0), (1, 1))
    pairs = [(phi, lam) for g in [(1, 0), (0, 1)]
             for phi in ring2.grade_basis(g) for lam in [(0, 0), g]]
    first = {}
    for phi, lam in pairs:
        first[id(phi), lam] = e.left_action(phi, lam)
        assert first[id(phi), lam] == _dense_left_action(e, phi, lam)
    calls = []
    real = la.mat_mul
    monkeypatch.setattr(la, "mat_mul",
                        lambda a, b: calls.append((a, b)) or real(a, b))
    for phi, lam in pairs:
        assert e.left_action(phi, lam) is first[id(phi), lam]
        assert e.left_action(phi.scale(e.datum.one()), lam) is \
            first[id(phi), lam]
    assert calls == []


def test_right_action_is_formed_once_per_pair(monkeypatch, ring2, pairing2):
    """right_action is kron(1, r_psi), and a second read of a (psi, lam)
    pair forms no kron: the first matrix comes back."""
    e = EBimodule(ring2, pairing2, (1, 0), (1, 1))
    pairs = [(psi, lam) for g in [(1, 0), (0, 1)]
             for psi in ring2.grade_basis(g) for lam in [(0, 0), g]]
    first = {}
    for psi, lam in pairs:
        first[id(psi), lam] = e.right_action(psi, lam)
        assert first[id(psi), lam] == la.kron(
            la.identity(e.vmod.dim, e.datum.l0),
            ring2.full_mult_matrix(lam, psi, "right"))
    calls = []
    real = la.kron
    monkeypatch.setattr(la, "kron",
                        lambda a, b: calls.append((a, b)) or real(a, b))
    for psi, lam in pairs:
        assert e.right_action(psi, lam) is first[id(psi), lam]
    assert calls == []


def test_checks_above_the_cap_skip_before_any_product(monkeypatch):
    """On G2 the window (0, 1) puts lam + xi = (0, 2) above the cap: flag
    stability and the layer scalars raise the cap error before they
    build V(0, 2) or form any product."""
    alg = UAlgebra(preset("G2"))
    ring = CoordRing(alg)
    e = EBimodule(ring, DrinfeldPairing(alg), (0, 1), (0, 1))
    phi = ring.grade_basis((0, 1))[0]
    assert not alg.datum.constructible((0, 2))
    built = []
    real = CoordRing.module

    def refuse(*args):
        raise AssertionError("a product above the cap")

    monkeypatch.setattr(CoordRing, "module", lambda self, lam: built.append(
        tuple(lam)) or real(self, lam))
    for name in ("mat_mul", "kron"):
        monkeypatch.setattr(la, name, refuse)
    with pytest.raises(DegreeCapError):
        e.flag_stability_check((0, 1), (0, 1))
    with pytest.raises(DegreeCapError):
        e.commutation_scalar(0, phi, (0, 1))
    assert built == []
