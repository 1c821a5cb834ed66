"""Every check can fail: single-point defects applied with ``monkeypatch``,
each of which a suite must report as a failure on the types its row
names.  A row runs only the suite its module reaches, on algebras of its
own, so no defect leaks into the memos other tests share."""

import pytest

from qflag import linalg, suites, weightmod
from qflag.config import RunConfig
from qflag.enveloping import UAlgebra
from qflag.memo import Memo


def _flip_braid_inverse(pred):
    """Negate T_i^-1 of each letter for which pred(i, letter) holds."""
    def apply(monkeypatch):
        real = UAlgebra.braid_inverse_image

        def mutant(self, i, letter):
            out = real(self, i, letter)
            return -out if pred(i, letter) else out
        monkeypatch.setattr(UAlgebra, "braid_inverse_image", mutant)
    return apply


def _scale_module_braid(inverse):
    """Scale T_i on modules (T_i^-1 when ``inverse``) by q_i."""
    def apply(monkeypatch):
        real = weightmod._braid_operator

        def mutant(mod, i, inv):
            out = real(mod, i, inv)
            if inv != inverse:
                return out
            return linalg.mat_scale(out, mod.datum.q_power(mod.datum.d(i)))
        monkeypatch.setattr(weightmod, "_braid_operator", mutant)
    return apply


# name: (defect, suite, types where the suite must fail)
MUTANTS = {
    # T_i^-1(e_i) negated
    "braid-inverse-e_i-sign": (
        _flip_braid_inverse(lambda i, letter: letter == ("e", i)),
        "zw", ["A1", "A2", "B2", "G2"]),
    # T_i^-1(f_j) negated for j != i; A1 has no such letter
    "braid-inverse-f_j-sign": (
        _flip_braid_inverse(lambda i, letter: letter[0] == "f"
                            and letter[1] != i),
        "zw", ["A2", "B2", "G2"]),
    # T_i on modules scaled by q_i
    "module-braid-scale": (_scale_module_braid(False), "braid",
                           ["A1", "A2", "B2", "G2"]),
    # T_i^-1 on modules scaled by q_i
    "module-braid-inverse-scale": (_scale_module_braid(True), "braid",
                                   ["A1", "A2", "B2", "G2"]),
}

CELLS = [(name, typ) for name, (_, _, types) in MUTANTS.items()
         for typ in types]


@pytest.mark.parametrize("name,typ", CELLS)
def test_mutant_is_caught(monkeypatch, name, typ):
    apply, suite, _ = MUTANTS[name]
    monkeypatch.setattr(suites, "_CONTEXTS", Memo())
    apply(monkeypatch)
    assert not suites.run_suite(suite, RunConfig(type=typ))["pass"]
