"""The transpose representation of degree-zero localized operators on the
plus part of the algebra.

Every degree-zero operator on the localized ring acts on each localized
graded piece; identifying the graded dual of that piece with the plus part
turns the operator into an endomorphism family indexed by probe weights.
The formula route builds the family from right multiplications, torus
conjugations and the two pairing-defined convolution operators; the direct
route transposes the honest action on a stabilized fraction model.  Both
are exact and must agree entrywise; the formula matrix is checked against
the model's polynomial Gram, and only the columns of a failing block are
solved for, to report it: no Gram is inverted."""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from . import coordring, linalg
from .cartan import RootSum, Weight, kostant_dim
from .coordring import CoordElement, CoordRing
from .enveloping import _content
from .errors import QflagError
from .linalg import Matrix, Vector
from .memo import Memo
from .rmatrix import DrinfeldPairing
from .weightmod import WeightModule, plus_part


class ThetaFormula:
    """The generator images built from the displayed structural operators
    on the plus part ``plus`` (``weightmod.plus_part``).  Use
    ``theta_formula``: it keeps one per pairing and truncation depth, so
    that every probe reads the same memoized operators."""

    def __init__(self, plus: WeightModule, pairing: DrinfeldPairing):
        self.plus = plus
        self.pairing = pairing
        self.algebra = plus.algebra
        self.datum = plus.datum
        self.memo = Memo()

    # -- structural operators on the plus part (memoized; do not mutate) ----------

    def m_right(self, i: int) -> Matrix:
        """Right multiplication by the i-th raising generator: the plus
        part's e_i."""
        return self.plus.gen[("e", i)]

    def n_conj(self, mu: Weight) -> Matrix:
        """Torus conjugation u -> k_mu u k_mu^{-1}: diagonal q^{(mu, deg)},
        the plus part's k_{-mu}."""
        mu = tuple(mu)
        return self.memo.get(("n", mu), lambda: self.plus.k_matrix(
            tuple(-x for x in mu)))

    def conv(self, i: int, leg: int) -> Matrix:
        """The convolution u -> sum phi_i(u_(leg)) u_(other leg), where the
        pairing functional phi_i of index i eats one k-stripped coproduct
        leg: leg 0 gives the operator p_i, leg 1 the operator q_i (whose
        k^{-1} shift cancels).  Both legs come from one coproduct pass."""
        return self.memo.get(("conv", i), lambda: self._convs(i))[leg]

    def _convs(self, i: int) -> Tuple[Matrix, Matrix]:
        plus = self.plus
        alg = self.algebra
        rank = self.datum.rank
        ai = self.datum.alpha_root(i)
        out = tuple(linalg.zeros(plus.dim, plus.dim, self.datum.l0)
                    for _leg in (0, 1))
        for col, (g, r) in enumerate(plus.slot_keys):
            gp = tuple(a - b for a, b in zip(g, ai))
            if any(c < 0 for c in gp):
                continue
            accs: Tuple[Dict, Dict] = ({}, {})
            for monos, c in alg.coproduct(
                    alg.e_word(alg.basis(g).free_words[r])).items():
                ews = (monos[0][2], monos[1][2])
                for leg, acc in enumerate(accs):
                    ew = ews[leg]
                    if _content(ew, rank) != ai:
                        continue
                    val = self.pairing.pair_words(ew, (i,))
                    if val.is_zero():
                        continue
                    rest = ews[1 - leg]
                    s = acc.get(rest)
                    v = c * val
                    acc[rest] = v if s is None else s + v
            pos = alg.basis(gp).free_pos
            for mat, acc in zip(out, accs):
                for w1, c in acc.items():
                    if not c.is_zero():
                        mat[plus.slot[(gp, pos[w1])]][col] = c
        return out

    # -- generator images -----------------------------------------------------------

    def theta(self, probe: Weight, kind: str, arg) -> Matrix:
        """Theta_probe of sigma_mu, partial_{e_i}, partial_{f_i} or
        partial_{k_mu} per the displayed formulas."""
        datum = self.datum
        if kind == "sigma":
            return linalg.diagonal([datum.q_pair(arg, probe)] * self.plus.dim,
                                   datum.l0)
        if kind == "de":
            return self.m_right(arg)
        if kind == "dk":
            return linalg.mat_scale(self.n_conj(tuple(-x for x in arg)),
                                    datum.q_pair(arg, probe))
        if kind == "df":
            i = arg
            ai = datum.alpha(i)
            t1 = linalg.mat_scale(
                linalg.mat_mul(self.conv(i, 0), self.n_conj(ai)),
                datum.q_pair(datum.weight_neg(ai),
                             datum.weight_add(ai, probe)))
            t2 = linalg.mat_scale(self.conv(i, 1), datum.q_pair(ai, probe))
            return linalg.mat_sub(t1, t2)
        raise ValueError(f"unknown generator kind {kind!r}")


def theta_formula(pairing: DrinfeldPairing, depth_ht: int) -> ThetaFormula:
    """The formula route on the plus part up to height depth_ht: one per
    pairing and depth (memoized on the pairing)."""
    return pairing.memo.get(
        ("theta-formula", depth_ht),
        lambda: ThetaFormula(plus_part(pairing.algebra, depth_ht), pairing))


class ThetaDirect:
    """Transpose action computed on the stabilized fraction model of a
    localized graded piece.  On each block it is G^{-1} V, G the model
    slice's polynomial Gram and V the functionals of the images; ``check``
    tests a formula block F as G F == V, so a passing check solves
    nothing, and a failing block is solved column by column to report the
    first differing cell."""

    def __init__(self, ring: CoordRing, plus: WeightModule, probe: Weight):
        self.ring = ring
        self.plus = plus
        self.datum = ring.datum
        self.probe = tuple(probe)
        self.level = ring.first_level(self.probe, self._stable)
        if self.level is None:
            raise QflagError(
                f"no stabilization level for probe {self.probe} within "
                f"{coordring.MAX_LEVEL} steps")
        self.memo = Memo()

    def _stable(self, grade: Weight) -> bool:
        fac = self.ring.factory(grade)
        drops = _drops(self.plus)
        return all(fac.slice_dim(g) == kostant_dim(self.datum, g)
                   for g in drops) and \
            all(self._gram_ok(grade, g) for g in drops)

    def _gram_ok(self, grade: Weight, gamma: RootSum) -> bool:
        """The evaluation matrix of the slice is square and nonsingular."""
        mat, _w, d = self.ring.eval_solver(grade, gamma)
        return 0 < d == len(mat) and linalg.nonsingular(mat)

    # -- fraction bookkeeping ----------------------------------------------------

    def model_basis(self, gamma: RootSum) -> List[Tuple[Weight, CoordElement]]:
        """The drop-gamma slice at the base level, as left fractions
        (denominator grade, numerator)."""
        grade = self.datum.weight_add(self.probe, self.level)
        return [(self.level, phi)
                for phi in self.ring.slice_basis(grade, gamma)]

    def functional_vector(self, image) -> Vector:
        """<theta(c_mu^{-1} psi), x_b> over the plus-part basis at the
        matching degree, from the image (mu, drop of psi, evaluations of
        psi): q^{-(mu, gamma)} times the evaluations."""
        mu, gamma, values = image
        tw = self.datum.q_pair(tuple(-x for x in mu),
                               self.datum.root_to_weight(gamma))
        return [tw * v for v in values]

    def _image(self, mu: Weight, psi: CoordElement):
        """The image of c_mu^{-1} psi, in the form the act_* methods return:
        (denominator grade, drop of psi, evaluations of psi)."""
        return (mu, psi.gamma, self.ring.evaluations(psi))

    def act_u(self, u, nu: Weight, frac) -> Tuple[Weight, RootSum, Vector]:
        """partial_u(c_mu^{-1} psi) = q^{-(nu, mu)} c_mu^{-1}(u psi), for
        u = k_nu, or u = e_i with nu = alpha_i."""
        mu, psi = frac
        c = self.datum.q_pair(tuple(-x for x in nu), mu)
        return self._image(mu, self.ring.u_action(u, psi).scale(c))

    def _ore_data(self, i: int):
        return self.memo.get(("ore", i), lambda: self._ore_witness(i))

    def _ore_witness(self, i: int):
        mu = self.level
        c_mu = self.ring.extremal((), mu)
        f_c = self.ring.u_action(self.ring.algebra.f(i), c_mu)
        if f_c.is_zero():
            return None
        t, chi = self.ring.ore_witness(f_c, (), mu, side="left")
        return (t.grade, chi)

    def act_f(self, i: int, frac) -> Tuple[Weight, RootSum, Vector]:
        """partial_{f_i}(c_mu^{-1} psi) = c_mu^{-1}(f_i psi)
        - q^{(alpha_i, mu - eta)} c_{mu+nu}^{-1}(chi psi), via the left Ore
        witness t (f_i c_mu) = chi c_mu with t = c_nu; the second form is
        read off the evaluations of the two products, never solved for."""
        datum = self.datum
        ring = self.ring
        mu, psi = frac
        eta = psi.weight
        first = ring.u_action(ring.algebra.f(i), psi)
        ore = self._ore_data(i)
        if ore is None:
            return self._image(mu, first)
        nu, chi = ore
        grade, gamma, lifted = ring.product_evaluations(
            ring.extremal((), nu), first)
        tw = datum.q_pair(datum.alpha(i), datum.weight_sub(mu, eta))
        grade2, gamma2, second = ring.product_evaluations(chi, psi)
        if (grade2, gamma2) != (grade, gamma):
            raise QflagError("Ore witness products differ in grade or drop")
        return (datum.weight_add(mu, nu), gamma,
                [a - tw * b for a, b in zip(lifted, second)])

    # -- transposed matrices ------------------------------------------------------

    def gram(self, gamma: RootSum) -> Matrix:
        """The model's Gram matrix q^{-(level, gamma)} E^T, E the evaluation
        matrix of its drop-gamma slice: row a holds the functionals of the
        a-th model fraction.  Polynomial, and square and nonsingular at
        this level (``_gram_ok``).  Memoized; do not mutate."""
        gamma = tuple(gamma)

        def build():
            datum = self.datum
            grade = datum.weight_add(self.probe, self.level)
            mat, _words, _d = self.ring.eval_solver(grade, gamma)
            return linalg.mat_scale(linalg.transpose(mat), datum.q_pair(
                datum.weight_neg(self.level), datum.root_to_weight(gamma)))
        return self.memo.get(("gram", gamma), build)

    def _blocks(self, kind: str, arg):
        """(target degree, source degree g, V) for each degree g of the
        truncation whose target degree under the generator lies in it: row
        a of V is <d(phi_a), x_b> over the degree-g words x_b, phi_a the
        a-th model fraction at the target degree.  The transpose matrix is
        G^{-1} V on each block (G the target's ``gram``) and zero off them."""
        datum = self.datum
        plus = self.plus
        # Theta(de_i) raises the plus-part degree, Theta(df_i) lowers it
        shift = {"de": datum.alpha_root(arg) if kind == "de" else None,
                 "df": tuple(-x for x in datum.alpha_root(arg))
                 if kind == "df" else None,
                 "dk": datum.zero_root}[kind]
        alg = self.ring.algebra
        act = {"de": lambda fr: self.act_u(alg.e(arg), datum.alpha(arg), fr),
               "df": lambda fr: self.act_f(arg, fr),
               "dk": lambda fr: self.act_u(alg.k(arg), arg, fr)}[kind]
        for g in _drops(plus):
            # target degree of Theta(d) on U^+_g
            tgt = tuple(a + b for a, b in zip(g, shift))
            if (tgt, 0) not in plus.slot:
                continue
            basis = self.model_basis(tgt)
            if not basis:
                continue
            vals = []
            for fr in basis:
                image = act(fr)
                # restrict to the source degree g
                if image[1] != g:
                    raise QflagError("fraction action landed at an "
                                     "unexpected drop")
                vals.append(self.functional_vector(image))
            yield tgt, g, vals

    def check(self, mf: Matrix, kind: str,
              arg) -> Tuple[bool, Optional[dict]]:
        """Compare mf with the transpose matrix entrywise, column by column,
        and report the first differing cell.  The transpose matrix is zero
        off the blocks (diagonal q^{(arg, probe)} for sigma), and G^{-1} V
        on each block: mf's own block F when G F == V (G is nonsingular),
        else the solutions of G x = v for the columns v of V.  No Gram is
        inverted, and each image is computed once."""
        datum = self.datum
        plus = self.plus
        blocks = {}             # source degree -> (first row, block)
        if kind == "sigma":
            c = datum.q_pair(arg, self.probe)
            for g, d in Counter(g for g, _r in plus.slot_keys).items():
                blocks[g] = (plus.slot[(g, 0)],
                             linalg.diagonal([c] * d, datum.l0))
        else:
            for tgt, g, vals in self._blocks(kind, arg):
                r0, c0 = plus.slot[(tgt, 0)], plus.slot[(g, 0)]
                block = [mf[r][c0:c0 + len(vals[0])]
                         for r in range(r0, r0 + len(vals))]
                gram = self.gram(tgt)
                if linalg.mat_mul(gram, block) != vals:
                    block = linalg.transpose(
                        [linalg.solve(gram, v) for v in linalg.transpose(vals)])
                blocks[g] = (r0, block)
        zero = datum.zero()
        for col, (g, r) in enumerate(plus.slot_keys):
            r0, block = blocks.get(g, (0, []))
            for row in range(plus.dim):
                i = row - r0
                direct = block[i][r] if 0 <= i < len(block) else zero
                if mf[row][col] != direct:
                    return False, {
                        "degree": datum.root_str(g),
                        "word": list(plus.algebra.basis(g).free_words[r]),
                        "row": row,
                        "formula": mf[row][col].to_str(),
                        "direct": direct.to_str()}
        return True, None


def theta_build(ring: CoordRing, pairing: DrinfeldPairing, depth_ht: int,
                probes: Sequence[Weight]) -> dict:
    """Build the generator family both ways and compare exactly."""
    datum = ring.datum
    formula = theta_formula(pairing, depth_ht)
    results = []
    gens: List[Tuple[str, object]] = []
    for i in range(datum.rank):
        gens.append(("de", i))
        gens.append(("df", i))
    gens.append(("dk", datum.rho))
    gens.append(("sigma", datum.rho))
    for probe in probes:
        direct = ThetaDirect(ring, formula.plus, probe)
        for kind, arg in gens:
            ok, cex = direct.check(formula.theta(tuple(probe), kind, arg),
                                   kind, arg)
            entry = {
                "instance": f"probe {datum.weight_str(tuple(probe))} "
                            f"{kind}({arg})",
                "pass": ok,
            }
            if cex:
                entry["counterexample"] = cex
            results.append(entry)
    return {"suite": "theta", "depth": depth_ht,
            "pass": all(r["pass"] for r in results), "results": results}


def _drops(plus: WeightModule) -> List[RootSum]:
    """The degrees of the plus part in layout order."""
    return [g for g, r in plus.slot_keys if r == 0]


def theta_faithfulness_probe(ring: CoordRing, pairing: DrinfeldPairing,
                             depth_ht: int, probes: Sequence[Weight],
                             span: Sequence[Sequence[Tuple[str, object]]]) -> dict:
    """Rank certificate: stack the formula-built family over the probes and
    measure the joint rank against the span size (linear independence on
    the window, not a proof of injectivity)."""
    formula = theta_formula(pairing, depth_ht)
    rows: List[Vector] = []
    for word in span:
        vec: Vector = []
        for probe in probes:
            # op-algebra: Theta(d1 d2) = Theta(d2) Theta(d1)
            mat = linalg.ordered_product(
                (formula.theta(tuple(probe), kind, arg)
                 for kind, arg in word), formula.plus.dim, ring.datum.l0,
                left=True)
            for r in mat:
                vec.extend(r)
        rows.append(vec)
    rk = linalg.rank(rows) if rows else 0
    return {
        "suite": "theta-faithfulness",
        "span_size": len(span),
        "rank": rk,
        "probes": [ring.datum.weight_str(tuple(p)) for p in probes],
        "depth": depth_ht,
        "pass": rk == len(span),
        "note": "finite-window linear-independence certificate only",
    }
