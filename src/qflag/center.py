"""The center of the quantized enveloping algebra at bounded height.

Central elements are found by an exact linear solve of the commutation
equations over a finite monomial window; each solution carries its image
in the group algebra of the weight lattice (read off the torus part),
which must be invariant under the shifted Weyl action.  Central characters
and annihilation of highest-weight modules are then verified exactly.

The solve splits into connected blocks of candidates.  Each block's rank
is decided first mod P (``linalg``'s rank core, on the columns' values at
q^(1/l0) = ``linalg._T`` mod ``linalg._P``): a block of full column rank
there has full column rank exactly, so no kernel, and forms no exact
product.  For the other blocks, on A2 at height 2 the 3 of 28 that have
a kernel, the rows the rank core kept are independent exactly: exact
cells are formed on those rows only and passed to ``linalg.nullspace``,
and the kernel found is checked against every other row of the block,
read on the kernel's support.  A block with a pole at the point, no
kept row or a failed check is solved exactly on all its rows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from . import linalg
from .cartan import RootSum, Weight, box, by_height
from .enveloping import MonoKey, UAlgebra, UElement, _content
from .scalars import QScalar
from .weightmod import verma

HCImage = Dict[Weight, QScalar]


class CenterElement:
    """A central element with its torus-part image."""

    def __init__(self, algebra: UAlgebra, element: UElement):
        self.algebra = algebra
        self.element = element
        self.hc_image: HCImage = {}
        for (fw, lam, ew), c in element.terms.items():
            if not fw and not ew:
                self.hc_image[lam] = c

    def zeta_at(self, lam: Weight) -> QScalar:
        """The central character at lam: evaluate e(mu) -> q^{(lam,mu)}."""
        datum = self.algebra.datum
        out = datum.zero()
        for mu, c in self.hc_image.items():
            out = out + c * datum.q_pair(lam, mu)
        return out

    def hc_is_invariant(self) -> bool:
        """Invariance of the image under w . e(mu) = q^{(w mu - mu, rho)}
        e(w mu)."""
        datum = self.algebra.datum
        for word in datum.all_weyl_words():
            moved: HCImage = {}
            for mu, c in self.hc_image.items():
                wmu = datum.weyl_act(word, mu)
                tw = datum.q_pair(datum.weight_sub(wmu, mu), datum.rho)
                key = wmu
                v = c * tw
                s = moved.get(key)
                moved[key] = v if s is None else s + v
            moved = {k: v for k, v in moved.items() if not v.is_zero()}
            if moved != self.hc_image:
                return False
        return True

    def is_scalar(self) -> bool:
        return all(not fw and not ew and not any(lam)
                   for (fw, lam, ew) in self.element.terms)

    def describe(self) -> dict:
        datum = self.algebra.datum
        return {
            "element": self.element.to_str(),
            "hc_image": {datum.weight_str(mu): c.to_str()
                         for mu, c in sorted(self.hc_image.items())},
        }


def _candidate_monomials(algebra: UAlgebra,
                         max_height: int) -> List[MonoKey]:
    """Weight-zero normal monomials y k_mu x with ht(deg) <= max_height and
    the torus weight in the coordinate box |mu_i| <= 2 max_height."""
    rank = algebra.datum.rank
    kb = 2 * max_height
    gammas = box((max_height,) * rank, height=max_height)
    mus = box((kb,) * rank, lo=(-kb,) * rank)
    out: List[MonoKey] = []
    for gamma in sorted(gammas, key=by_height):
        words = algebra.basis(gamma).free_words
        for fw in words:
            for ew in words:
                for mu in mus:
                    out.append((fw, mu, ew))
    return out


def center_solve(algebra: UAlgebra, max_height: int) -> List[CenterElement]:
    """Exact nullspace of the commutation equations [z, e_i] = [z, f_i] = 0
    over the monomial window (weight-zero monomials commute with the torus
    automatically).  Completeness at the given height is not claimed.
    Memoized in the algebra's memo: the solve is the most expensive step at
    rank 2."""
    return algebra.memo.get(("center", max_height),
                            lambda: _solve(algebra, max_height))


def _solve(algebra: UAlgebra, max_height: int) -> List[CenterElement]:
    datum = algebra.datum
    cands = _candidate_monomials(algebra, max_height)
    if not cands:
        return []
    # The straightenings in [y k_mu x, g] do not involve the torus part:
    # mu only contributes exponent twists.  Compute the commutator of each
    # word shape against each generator once, then specialize over mu.
    shapes = sorted({(fw, ew) for (fw, _mu, ew) in cands})
    gens = _solver_generators(datum)
    shape_comms = {
        (shape, gi): _shape_commutator(algebra, shape, kind, i)
        for shape in shapes
        for gi, (kind, i) in enumerate(gens)
    }
    # A row (generator, fw2, nu2 + mu, ew2) is numbered by one integer: the
    # number of (generator, fw2, ew2) times ``width`` plus the code of the
    # weight, which is linear in the weight; so a term's row number is its
    # shape entry's number plus the code of mu.  Row ids count the rows in
    # order of first appearance.
    kb = max(max(map(abs, mu)) for (_fw, mu, _ew) in cands)
    spread = kb + max((abs(a) for entries in shape_comms.values()
                       for entry in entries for a in entry[1]), default=0)
    code = _weight_code(2 * spread + 1)
    width = (2 * spread + 1) ** datum.rank
    bases: Dict[tuple, int] = {}
    # Each shape's entries against every generator, in order: (row number
    # less the code of mu, coefficient, twist weight, coefficient mod P),
    # each distinct coefficient evaluated once.
    coeff_vals: Dict[QScalar, Optional[int]] = {}
    comms: Dict[tuple, List[tuple]] = {}
    for shape in shapes:
        entries = comms[shape] = []
        for gi in range(len(gens)):
            for (fw2, nu2, ew2, c, tw) in shape_comms[(shape, gi)]:
                if c not in coeff_vals:
                    coeff_vals[c] = linalg._mod_p(c)
                base = bases.setdefault((gi, fw2, ew2), len(bases))
                entries.append((base * width + code(nu2), c, tw,
                                coeff_vals[c]))
    # Each candidate column is held as its terms (row id, coefficient,
    # twist weight), with no product formed, and as its values mod P, or
    # None when a coefficient has a pole at the point; each twist
    # q^{-(mu, tw)} mod P is a power of T computed once per (mu, tw).
    twist_vals: Dict[Weight, Dict[Weight, int]] = {}
    rows_index: Dict[int, int] = {}
    col_terms: List[List[tuple]] = []
    col_vals: List[Optional[Dict[int, int]]] = []
    for (fw, mu, ew) in cands:
        shift = code(mu)
        twist_at = twist_vals.setdefault(mu, {})
        ts = []
        col: Optional[Dict[int, int]] = {}
        for (number, c, tw, x) in comms[(fw, ew)]:
            idx = rows_index.setdefault(number + shift, len(rows_index))
            ts.append((idx, c, tw))
            if x is None:
                col = None
            if col is None:
                continue
            if tw is not None:
                t = twist_at.get(tw)
                if t is None:
                    t = twist_at[tw] = linalg._q_l0_mod_p(
                        datum.pair_l0(datum.weight_neg(mu), tw))
                x = x * t
            col[idx] = col.get(idx, 0) + x
        col_terms.append(ts)
        col_vals.append(None if col is None else
                        {idx: r for idx, x in col.items()
                         if (r := x % linalg._P)})
    # candidates only interact through shared commutator components, so
    # the nullspace splits into small connected blocks
    parent = list(range(len(cands)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    row_owner: Dict[int, int] = {}
    for j, ts in enumerate(col_terms):
        for ridx, _c, _tw in ts:
            if ridx in row_owner:
                union(row_owner[ridx], j)
            else:
                row_owner[ridx] = j
    groups: Dict[int, List[int]] = {}
    for j in range(len(cands)):
        groups.setdefault(find(j), []).append(j)
    twists: Dict[tuple, QScalar] = {}  # (mu, twist weight) -> q^{-(mu, tw)}

    def exact_cells(j: int, wanted) -> Dict[int, QScalar]:
        """Column j's exact cells q^{-(mu, tw)}·c on the row ids for which
        ``wanted`` holds; no product is formed for any other row."""
        mu = cands[j][1]
        cells: Dict[int, QScalar] = {}
        for ridx, c, tw in col_terms[j]:
            if not wanted(ridx):
                continue
            if tw is not None:
                t = twists.get((mu, tw))
                if t is None:
                    t = twists[(mu, tw)] = datum.q_pair(
                        datum.weight_neg(mu), tw)
                c = c * t
            old = cells.get(ridx)
            cells[ridx] = c if old is None else old + c
        return cells

    def kernel(members: List[int], rows: List[int]) -> List[linalg.Vector]:
        """The exact kernel of the block's cells on ``rows``."""
        rpos = {r: i for i, r in enumerate(rows)}
        mat = linalg.zeros(len(rows), len(members), datum.l0)
        for jj, j in enumerate(members):
            for ridx, c in exact_cells(j, rpos.__contains__).items():
                mat[rpos[ridx]][jj] = c
        return linalg.nullspace(mat)

    def kills_other_rows(members: List[int], kept: set,
                         basis: List[linalg.Vector]) -> bool:
        """Whether every row of the block outside ``kept`` kills every
        vector of ``basis``, each row read on the vectors' support only."""
        sums: List[Dict[int, QScalar]] = [{} for _ in basis]
        for jj, j in enumerate(members):
            hits = [(v[jj], acc) for v, acc in zip(basis, sums)
                    if v[jj].num]
            if not hits:
                continue
            for ridx, c in exact_cells(
                    j, lambda r: r not in kept).items():
                for x, acc in hits:
                    old = acc.get(ridx)
                    acc[ridx] = c * x if old is None else old + c * x
        return not any(s.num for acc in sums for s in acc.values())

    out = []
    for members in groups.values():
        if not any(col_terms[j] for j in members):
            for j in members:
                out.append(CenterElement(algebra, UElement(
                    algebra, {cands[j]: datum.one()})))
            continue
        # The rows the rank core keeps are independent mod P, so exactly
        # (a minor that is nonzero at the point is nonzero).  As many as
        # the columns: full column rank, no kernel, and the block adds
        # nothing.  Fewer: the block's kernel lies in the kernel K of the
        # kept rows, and equals it iff every other row kills K, since the
        # rows that kill K are the kept rows' span.  Then the block's row
        # space is the kept rows', with the same reduced echelon form and
        # so the same nullspace vectors.  A block with a pole at the
        # point, no kept row, or a failed check is solved on all its rows.
        basis = None
        if all(col_vals[j] is not None for j in members):
            kept = _kept_rows_mod_p([col_vals[j] for j in members])
            if len(kept) == len(members):
                continue
            if kept:
                basis = kernel(members, sorted(kept))
                if not kills_other_rows(members, set(kept), basis):
                    basis = None
        if basis is None:
            basis = kernel(members, sorted({
                ridx for j in members for ridx, _c, _tw in col_terms[j]}))
        for vec in basis:
            terms = {}
            for jj, c in zip(range(len(members)), vec):
                if not c.is_zero():
                    terms[cands[members[jj]]] = c
            out.append(CenterElement(algebra, UElement(algebra, terms)))
    return out


def _weight_code(radix: int):
    """The code sum_i w_i radix^i of a weight w: linear in w, and distinct
    for weights whose coordinates lie in an interval of ``radix`` integers
    (two such codes differ by sum_i d_i radix^i with every |d_i| < radix,
    which is zero only when every d_i is)."""
    return lambda w: sum(a * radix ** i for i, a in enumerate(w))


def _kept_rows_mod_p(cols: List[Dict[int, int]]) -> List[int]:
    """The ids of rows that form a basis mod P of the rows of the block
    whose columns are ``cols`` ({row id: nonzero value mod P}): as many
    as the columns exactly when these are independent.  The rank core is
    fed the rows, sparsest first so that its basis stays sparse, and
    stops once the rows kept span every column: on the A2 blocks that
    reduces far fewer cells than feeding it the columns."""
    rows: Dict[int, Dict[int, int]] = {}
    for jj, col in enumerate(cols):
        for ridx, x in col.items():
            rows.setdefault(ridx, {})[jj] = x
    return linalg._independent_mod_p(
        sorted(rows.items(), key=lambda row: len(row[1])), len(cols))


def _solver_generators(datum):
    return [("e", i) for i in range(datum.rank)] + \
           [("f", i) for i in range(datum.rank)]


def _shape_commutator(algebra: UAlgebra, shape, kind: str, i: int):
    """Terms of [y 1 x, g] for a torus-free word shape (y, x): entries
    (fw, nu, ew, coeff, twist) meaning the monomial fw k_{nu+mu} ew with
    coefficient coeff * q^{-(mu, twist)} once k_mu is inserted; twist is a
    weight, or None for no twist."""
    datum = algebra.datum
    rank = datum.rank
    fw, ew = shape

    def as_weight(content):
        return datum.root_to_weight(content) if any(content) else None
    out = []
    if kind == "e":
        # right: y k_mu (x e_i) -- concatenation stays in the plus part
        for xw, c in algebra._in_basis(ew + (i,)).items():
            out.append((fw, datum.zero_weight, xw, c, None))
        # left: (e_i y) k_mu x, commuting k_mu through the raised tail
        word = (("e", i),) + tuple(("f", j) for j in fw)
        for (fw1, nu1, ew1), c in algebra.normal_form_word(word).items():
            twist = as_weight(_content(ew1, rank))
            for xw, cx in algebra._in_basis(ew1 + ew).items():
                out.append((fw1, nu1, xw, -(c * cx), twist))
    else:
        # right: y k_mu (x f_i), commuting k_mu through the lowered tail
        word = tuple(("e", j) for j in ew) + (("f", i),)
        for (fw2, nu2, ew2), c in algebra.normal_form_word(word).items():
            twist = as_weight(_content(fw2, rank))
            for yw, cy in algebra._in_basis(fw + fw2).items():
                out.append((yw, nu2, ew2, c * cy, twist))
        # left: (f_i y) k_mu x -- concatenation stays in the minus part
        for yw, c in algebra._in_basis((i,) + fw).items():
            out.append((yw, datum.zero_weight, ew, -c, None))
    return out


def commutes_with_generators(algebra: UAlgebra, z: UElement) -> bool:
    datum = algebra.datum
    gens = [algebra.e(i) for i in range(datum.rank)] + \
           [algebra.f(i) for i in range(datum.rank)] + \
           [algebra.k(datum.fundamental(i)) for i in range(datum.rank)]
    return all((z * g - g * z).is_zero() for g in gens)


def partial_z_is_sigma_zeta(window, zc: CenterElement) -> bool:
    """The operator identity: the action of z on the window agrees with
    the sigma-image of its torus part."""
    datum = window.datum
    lhs = window.op_partial(zc.element)
    rhs = window.op_zero(datum.zero_weight)
    for mu, c in zc.hc_image.items():
        rhs = rhs + window.op_sigma(mu).scale(c)
    ok, _ = lhs.equals(rhs)
    return ok


def zeta_separation_scan(algebra: UAlgebra, centers: Sequence[CenterElement],
                         lams: Sequence[Weight]) -> dict:
    """Joint scan: the family of characters evaluated on all found central
    elements separates exactly the shifted-Weyl orbits among ``lams``."""
    datum = algebra.datum
    chars = [[zc.zeta_at(tuple(lam)) for zc in centers] for lam in lams]
    results = []
    ok = True
    for l1, z1 in zip(lams, chars):
        for l2, z2 in zip(lams, chars):
            eq = z1 == z2
            orb = datum.linked(l1, l2) is not None
            if eq != orb:
                ok = False
            results.append({"l1": datum.weight_str(tuple(l1)),
                            "l2": datum.weight_str(tuple(l2)),
                            "equal": eq, "linked": orb})
    return {"pass": ok, "results": results}


def annihilator_check(algebra: UAlgebra, zc: CenterElement, lam: Weight,
                      depth: RootSum,
                      character_at: Optional[Weight] = None) -> dict:
    """(z - zeta_mu(z)) annihilates the depth-truncated highest-weight
    module of weight lam, with mu = lam by default; passing a different
    ``character_at`` gives the negative control."""
    datum = algebra.datum
    mu = tuple(lam) if character_at is None else tuple(character_at)
    mod = verma(algebra, tuple(lam), tuple(depth))
    zeta = zc.zeta_at(mu)
    mat = mod.act(zc.element)
    diff = linalg.mat_sub(mat, linalg.diagonal([zeta] * mod.dim, datum.l0))
    # rows landing outside the truncation window are not exact; z has
    # weight zero so every block is window-to-window and exact
    annihilates = linalg.is_zero_matrix(diff)
    return {
        "lam": datum.weight_str(tuple(lam)),
        "character_at": datum.weight_str(mu),
        "zeta": zeta.to_str(),
        "annihilates": annihilates,
        "linked": datum.linked(mu, lam) is not None,
    }
