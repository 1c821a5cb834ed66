"""Every check can fail: single-point defects applied with ``monkeypatch``,
each of which a suite must report as a failure on the types its row
names.  A row runs only the suite its module reaches, on algebras of its
own, so no defect leaks into the memos other tests share."""

import pytest

from qflag import cartan, linalg, rmatrix, scalars, suites, weightmod
from qflag.bimodule import EBimodule
from qflag.config import RunConfig
from qflag.coordring import CoordRing
from qflag.enveloping import UAlgebra
from qflag.memo import Memo
from qflag.rmatrix import DrinfeldPairing, r_operator


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


def _lusztig_sign_dropped(monkeypatch):
    """Lusztig's formula for T_i^+-1 on modules with its sign (-1)^a
    dropped: every term added where the odd ones are subtracted."""
    real = weightmod._lusztig_coefficient

    def mutant(a, b, t, l0):
        out = real(a, b, t, l0)
        return -out if a % 2 else out
    monkeypatch.setattr(weightmod, "_lusztig_coefficient", mutant)


def _wrong_dual_row(monkeypatch):
    """Replace the last row of C_beta, the inverse transpose of the pairing
    table from which R-inverse sums its last dual-basis matrix
    D_a = sum_b C[a][b] y_b, by the row before it, in degrees of dimension
    at least 2."""
    real = DrinfeldPairing._xi

    def mutant(self, beta):
        coeffs = real(self, beta)
        return coeffs if len(coeffs) < 2 else coeffs[:-1] + [coeffs[-2]]
    monkeypatch.setattr(DrinfeldPairing, "_xi", mutant)


def _kostant_off_by_one(monkeypatch):
    """One Kostant partition count, P(alpha_1 + alpha_2), one too large;
    the counts above it read it."""
    real = cartan._kostant_count

    def mutant(datum, gamma):
        return real(datum, gamma) + (tuple(gamma) == (1, 1))
    monkeypatch.setattr(cartan, "_kostant_count", mutant)


def _rref_clears_below_only(monkeypatch):
    """rref with no back substitution: each pivot clears only the rows
    below it, so an echelon row keeps its cells above later pivots."""
    def mutant(rows):
        if not rows or not rows[0]:
            return [], []
        mat = [list(r) for r in rows]
        pivots, r = [], 0
        for c in range(len(mat[0])):
            pr = linalg._pivot_row(mat, r, c)
            if pr is None:
                continue
            mat[r], mat[pr] = mat[pr], mat[r]
            inv = mat[r][c].inverse()
            mat[r] = [x * inv for x in mat[r]]
            for i in range(r + 1, len(mat)):
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
            pivots.append(c)
            r += 1
            if r == len(mat):
                break
        return mat[:r], pivots
    monkeypatch.setattr(linalg, "rref", mutant)


def _ray_scale_inverted(monkeypatch):
    """A multiplication matrix read from its ray scaled by c^-1 where the
    element is c times the ray."""
    real = CoordRing._ray

    def mutant(self, phi):
        c, ray = real(self, phi)
        return (None if c is None else c.inverse()), ray
    monkeypatch.setattr(CoordRing, "_ray", mutant)


def _eta_unflipped(monkeypatch):
    """eta(lam)^-1 read from R-inverse's rows with their columns left on
    A(lam) (x) V(mu), not flipped onto V(mu) (x) A(lam)."""
    def mutant(self, lam):
        rows = r_operator(self.pairing, self.ring.module(tuple(lam)),
                          self.vmod, "R-inverse").rows
        return linalg.from_rows(rows, len(rows), self.datum.l0)
    monkeypatch.setattr(EBimodule, "eta_inv", mutant)


def _series_coefficient_lagging(monkeypatch):
    """The n-th term of a q-exponential exp_t(c a (x) b) with c^(n-1) in
    place of c^n: every cell of the series divided by c, in Theta's factors
    and in the braid suite's tensor factorizations alike."""
    real = rmatrix._series_cells

    def mutant(a, b, t_scale, c, l0):
        inv = c.inverse()
        return {r: {j: x * inv for j, x in cells.items()}
                for r, cells in real(a, b, t_scale, c, l0).items()}
    for module in (rmatrix, suites):
        monkeypatch.setattr(module, "_series_cells", mutant)


def _quantum_integer_off_by_one(monkeypatch):
    """[n] computed as [n + 1], wherever it is read by name."""
    real = scalars.quantum_integer

    def mutant(n, d, l0):
        return real(n + 1, d, l0)
    for module in (scalars, weightmod):
        monkeypatch.setattr(module, "quantum_integer", mutant)


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
    # Lusztig's formula for T_i on modules without its (-1)^a
    "braid-formula-sign": (_lusztig_sign_dropped, "braid",
                           ["A1", "A2", "B2", "G2"]),
    # R-inverse's last dual-basis matrix from the wrong row of C_beta
    "r-inverse-dual-row": (_wrong_dual_row, "rmatrix", ["A2", "B2", "G2"]),
    # P(alpha_1 + alpha_2) off by one
    "kostant-count": (_kostant_off_by_one, "pbw", ["A2", "B2", "G2"]),
    # rref clears below each pivot only; A1 rmatrix is blind to it, and
    # A1 and B2 center see it
    "rref-forward-only": (_rref_clears_below_only, "rmatrix",
                          ["A2", "B2", "G2"]),
    "rref-forward-only-center": (_rref_clears_below_only, "center",
                                 ["A1", "B2"]),
    # the graded bases refuse a rewrite rule that keeps a pivot word, so
    # these suites report a failed entry where they raised KeyError
    "rref-forward-only-weyl-character": (_rref_clears_below_only,
                                         "weyl-character", ["A2"]),
    "rref-forward-only-ore": (_rref_clears_below_only, "ore", ["G2"]),
    # a multiple of a ray scaled by the inverse; G2 lemma-rl is blind to
    # it: its window (0, 1) composes every scaled l_{x_p psi} with a
    # partial of positive degree on the trivial grade, which is zero
    "ray-scale-inverted-relations": (_ray_scale_inverted, "relations",
                                     ["A1", "A2", "B2", "G2"]),
    "ray-scale-inverted-zw": (_ray_scale_inverted, "zw",
                              ["A1", "A2", "B2", "G2"]),
    "ray-scale-inverted-lemma-rl": (_ray_scale_inverted, "lemma-rl",
                                    ["A1", "A2", "B2"]),
    # the eta flip left out of eta^-1; G2's window (0, 1) holds no sum of
    # two grades, so its bimodule skips every check that reads eta^-1
    "eta-unflipped": (_eta_unflipped, "bimodule", ["A1", "A2", "B2"]),
    # the n-th term of a q-exponential with c^(n-1) for c^n
    "series-coefficient-rmatrix": (_series_coefficient_lagging, "rmatrix",
                                   ["A1", "A2", "B2", "G2"]),
    "series-coefficient-braid": (_series_coefficient_lagging, "braid",
                                 ["A1", "A2", "B2", "G2"]),
    # [n] off by one in its argument
    "quantum-integer-off-by-one": (_quantum_integer_off_by_one,
                                   "presentation", ["A1", "A2", "B2", "G2"]),
}

CELLS = [(name, typ) for name, (_, _, types) in MUTANTS.items()
         for typ in types]


@pytest.mark.parametrize("name,typ", CELLS)
def test_mutant_is_caught(monkeypatch, name, typ):
    apply, suite, _ = MUTANTS[name]
    monkeypatch.setattr(suites, "_CONTEXTS", Memo())
    apply(monkeypatch)
    assert not suites.run_suite(suite, RunConfig(type=typ))["pass"]
