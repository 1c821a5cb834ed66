"""Spot checks on the non-simply-laced presets: the machinery is built for
any finite type, the acceptance desk scale just concentrates on ranks with
cheap module sizes."""

import json

import pytest

from qflag import linalg as la
from qflag.cartan import kostant_dim, preset, weyl_character
from qflag.cli import main
from qflag.coordring import CoordRing
from qflag.diffops import DWindow, lemma_rl_check, relations_check, z_w_check
from qflag.enveloping import UAlgebra
from qflag.rmatrix import DrinfeldPairing, hexagon_check, r_operator
from qflag.suites import SUITES, _braid_along
from qflag.weightmod import braid_on_module, check_module_relations, simple


@pytest.fixture(scope="module")
def b2():
    return preset("B2")


@pytest.fixture(scope="module")
def algb(b2):
    return UAlgebra(b2)


def test_b2_simple_modules(algb, b2):
    vec = simple(algb, (1, 0))
    spin = simple(algb, (0, 1))
    assert vec.dim == 5 and spin.dim == 4
    assert check_module_relations(vec) == []
    assert check_module_relations(spin) == []
    assert vec.character() == weyl_character(b2, (1, 0))


def test_b2_braid_compatibility(algb):
    spin = simple(algb, (0, 1))
    for i in range(2):
        t = braid_on_module(spin, i)
        for u in [algb.e(0), algb.e(1), algb.f(0), algb.f(1)]:
            lhs = la.mat_mul(t, spin.act(u))
            rhs = la.mat_mul(spin.act(algb.braid_on_element(i, u)), t)
            assert la.mat_eq(lhs, rhs)


def test_b2_braid_relation_length_four(algb, b2):
    # composed along each literal word: braid_word canonicalizes its word,
    # so it would take one route for both
    spin = simple(algb, (0, 1))
    m1 = _braid_along(spin, (0, 1, 0, 1))
    m2 = _braid_along(spin, (1, 0, 1, 0))
    assert la.mat_eq(m1, m2)
    assert b2.longest_word() in ((0, 1, 0, 1), (1, 0, 1, 0))


def test_b2_rmatrix(algb):
    pairing = DrinfeldPairing(algb)
    spin = simple(algb, (0, 1))
    r = r_operator(pairing, spin, spin, "R")
    rinv = r_operator(pairing, spin, spin, "R-inverse")
    ident = la.identity(16, algb.datum.l0)
    assert la.mat_eq(la.mat_mul(r.matrix, rinv.matrix), ident)
    rc = r_operator(pairing, spin, spin, "R-check")
    from qflag.weightmod import module_map_commutes
    assert module_map_commutes(rc.source, rc.target, rc.matrix)
    assert hexagon_check(pairing, spin, spin, spin)["pass"]


def test_b2_diffops_window(algb):
    ring = CoordRing(algb)
    pairing = DrinfeldPairing(algb)
    window = DWindow(ring, pairing, (0, 1))
    assert relations_check(window)["pass"]
    for psi in ring.grade_basis((0, 1)):
        assert lemma_rl_check(window, psi)["pass"]
    assert z_w_check(window, 1)["pass"]


def test_g2_pairing_nondegenerate(g2):
    alg = UAlgebra(g2)
    pairing = DrinfeldPairing(alg)
    for gamma in [(1, 0), (0, 1), (1, 1), (1, 2), (1, 3)]:
        la.inverse(pairing.table(gamma))  # raises if singular
    assert alg.basis((1, 3)).dim == kostant_dim(g2, (1, 3))


def test_g2_operator_window(g2):
    alg = UAlgebra(g2)
    ring = CoordRing(alg)
    pairing = DrinfeldPairing(alg)
    window = DWindow(ring, pairing, (0, 1))
    assert relations_check(window)["pass"]
    for psi in ring.grade_basis((0, 1)):
        assert lemma_rl_check(window, psi)["pass"]


# the notes a G2 run may carry: the height-cap skip, and the notes some
# suites give on every type
_G2_NOTES = {"skipped: above height cap",
             "skipped: no separating family in window",
             "finite-window linear-independence certificate only",
             "reported; raise the height to search further"}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_g2_suites_reach_a_verdict(suite, capsys):
    # V(w1) of G2 is above the default height cap: the suites use V(w2)
    # and the grade window (0,1), and report what would need a larger
    # module as skipped
    assert main(["verify", suite, "--type", "G2", "--json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results and all(r["pass"] is True for r in results)
    assert {r["note"] for r in results if "note" in r} <= _G2_NOTES
    if suite == "braid":
        assert not any("note" in r for r in results)
    if suite in ("relations", "lemma-rl", "zw", "center"):
        assert any("note" not in r for r in results)
