"""Command-line driver: construct objects, run computations, execute
verification suites, emit deterministic JSON."""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from typing import List, Optional

from .cartan import CartanDatum, box, by_height, preset
from .config import RunConfig
from .coordring import CoordRing
from .enveloping import UAlgebra
from .errors import DegreeCapError, ParseError, QflagError
from .rmatrix import DrinfeldPairing, r_operator
from .suites import SUITES, run_suite
from .weightmod import restricted_dual, simple, verma


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qflag",
        description="exact computations for quantized enveloping algebras, "
                    "R-matrices, flag coordinate rings and q-differential "
                    "operators")
    p.add_argument("--json", action="store_true", help="emit JSON output")
    sub = p.add_subparsers(dest="command")

    def common(sp):
        sp.add_argument("--type", default="A1",
                        help="preset A1, A2, B2/C2 or G2")
        sp.add_argument("--cartan-matrix", default=None,
                        help="explicit matrix like '[[2,-1],[-1,2]]'")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--json", action="store_true", dest="json_sub",
                        help="emit JSON output")

    sp = sub.add_parser("cartan", help="describe a Cartan datum")
    common(sp)

    sp = sub.add_parser("basis", help="graded basis of the plus/minus part")
    common(sp)
    sp.add_argument("--degree", required=True, help="root sum like '<1,1>'")
    sp.add_argument("--sign", choices=["plus", "minus"], default="plus")

    sp = sub.add_parser("pairing", help="pairing table at a degree")
    common(sp)
    sp.add_argument("--degree", required=True)

    sp = sub.add_parser("rmatrix", help="R-operator on a tensor of simples")
    common(sp)
    sp.add_argument("--hw", required=True, help="weight like '[1]' or '[1,0]'")
    sp.add_argument("--hw2", default=None)
    sp.add_argument("--flavor", default="R",
                    choices=["R", "R-inverse", "R-check", "kappa"])

    sp = sub.add_parser("module", help="weight-module description")
    common(sp)
    sp.add_argument("--hw", required=True)
    sp.add_argument("--verma", action="store_true")
    sp.add_argument("--depth", default=None, help="root sum like '<2,2>'")
    sp.add_argument("--side", choices=["left", "right"], default="left")
    sp.add_argument("--dual", action="store_true")

    sp = sub.add_parser("coord", help="graded dimensions and extremal data")
    common(sp)
    sp.add_argument("--cutoff", required=True, help="weight like '[2]'")

    sp = sub.add_parser("verify", help="run a verification suite")
    common(sp)
    sp.add_argument("suite", nargs="?", default=None,
                    choices=sorted(SUITES) + ["all"])
    sp.add_argument("--suite", dest="suite_flag", default=None,
                    choices=sorted(SUITES) + ["all"],
                    help="alternative to the positional suite name")
    sp.add_argument("--cutoff", default=None)
    sp.add_argument("--depth", default=None)
    sp.add_argument("--max", type=int, default=4)
    sp.add_argument("--corrupt", action="store_true",
                    help="intentionally corrupt the build (negative control)")
    return p


def _emit(payload: dict, as_json: bool) -> None:
    try:
        if as_json:
            print(json.dumps(payload, sort_keys=True, indent=2))
        else:
            _pretty(payload)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (``qflag ... | head``): drop the rest of the
        # output, also at interpreter exit, and keep the command's status
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _pretty(payload: dict, indent: int = 0) -> None:
    pad = "  " * indent
    if "suite" in payload and "results" in payload:
        print(f"{pad}suite {payload['suite']}: "
              f"{'PASS' if payload['pass'] else 'FAIL'}")
        for r in payload["results"]:
            if isinstance(r, dict) and "suite" in r and "results" in r:
                _pretty(r, indent + 1)
            elif isinstance(r, dict):
                status = "ok" if r.get("pass") else "FAIL"
                print(f"{pad}  [{status}] {r.get('instance', '?')}")
                if not r.get("pass") and r.get("counterexample"):
                    print(f"{pad}      counterexample: "
                          f"{json.dumps(r['counterexample'], sort_keys=True)}")
        return
    print(json.dumps(payload, sort_keys=True, indent=2))


def _datum_from_args(args) -> CartanDatum:
    if not args.cartan_matrix:
        return preset(args.type)
    try:
        return CartanDatum(json.loads(args.cartan_matrix), name="custom")
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad --cartan-matrix {args.cartan_matrix!r}: "
                         f"{exc}") from exc


def _weight_arg(datum: CartanDatum, text: str, what="highest weight"):
    lam = datum.parse_weight(text)
    if any(c < 0 for c in lam):
        raise ParseError(f"{what} has a negative coordinate: {text!r}")
    return lam


def main(argv: Optional[List[str]] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command is None:
        parser.print_usage()
        return 2
    as_json = bool(getattr(args, "json", False)
                   or getattr(args, "json_sub", False))
    # input is checked where it is parsed: any other non-qflag error is a bug
    try:
        return _dispatch(args, as_json)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegreeCapError as exc:
        print(f"error: height cap: {exc}", file=sys.stderr)
        return 3
    except QflagError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def _dispatch(args, as_json: bool) -> int:
    if args.command == "cartan":
        datum = _datum_from_args(args)
        _emit({"schema": 1, **datum.describe()}, as_json)
        return 0

    if args.command == "basis":
        datum = _datum_from_args(args)
        alg = UAlgebra(datum)
        gamma = datum.parse_root(args.degree)
        basis = alg.basis(gamma)
        _emit({
            "schema": 1,
            "degree": datum.root_str(gamma),
            "sign": args.sign,
            "dimension": basis.dim,
            "words": [_word_str(w, args.sign) for w in basis.free_words],
        }, as_json)
        return 0

    if args.command == "pairing":
        datum = _datum_from_args(args)
        alg = UAlgebra(datum)
        pairing = DrinfeldPairing(alg)
        gamma = datum.parse_root(args.degree)
        table = pairing.table(gamma)
        _emit({
            "schema": 1,
            "degree": datum.root_str(gamma),
            "rows": [_word_str(w, "plus")
                     for w in alg.basis(gamma).free_words],
            "cols": [_word_str(w, "minus")
                     for w in alg.basis(gamma).free_words],
            "matrix": [[x.to_str() for x in row] for row in table],
        }, as_json)
        return 0

    if args.command == "rmatrix":
        datum = _datum_from_args(args)
        alg = UAlgebra(datum)
        pairing = DrinfeldPairing(alg)
        hw = _weight_arg(datum, args.hw)
        hw2 = _weight_arg(datum, args.hw2) if args.hw2 else hw
        op = r_operator(pairing, simple(alg, hw), simple(alg, hw2),
                        args.flavor)
        _emit({"schema": 1, **op.describe()}, as_json)
        return 0

    if args.command == "module":
        datum = _datum_from_args(args)
        alg = UAlgebra(datum)
        if args.verma:
            depth = datum.parse_root(args.depth) if args.depth \
                else (2,) * datum.rank
            mod = verma(alg, datum.parse_weight(args.hw), depth,
                        side=args.side)
        else:
            mod = simple(alg, _weight_arg(datum, args.hw))
        if args.dual:
            mod = restricted_dual(mod)
        _emit({"schema": 1, **mod.describe()}, as_json)
        return 0

    if args.command == "coord":
        datum = _datum_from_args(args)
        alg = UAlgebra(datum)
        ring = CoordRing(alg)
        cutoff = _weight_arg(datum, args.cutoff, "cutoff")
        grades = {}
        for g in sorted(box(cutoff), key=by_height):
            grades[datum.weight_str(g)] = ring.grade_dim(g)
        lam = datum.fundamental(0)
        extremal = {}
        witnesses = {}
        kernel_dims = {}
        for w in datum.all_weyl_words():
            key = str(list(w))
            c = ring.extremal(w, lam)
            extremal[key] = c.describe()
            phi = ring.grade_basis(lam)[-1]
            t, psi = ring.ore_witness(phi, w, lam, side="left")
            witnesses[key] = {"phi": phi.describe(), "t": t.describe(),
                              "psi": psi.describe()}
            kernel_dims[key] = ring.schubert_kernel_dim(w, lam)
        _emit({"schema": 1, "graded_dimensions": grades,
               "extremal_elements_of_first_fundamental": extremal,
               "left_ore_witnesses": witnesses,
               "schubert_kernel_dimensions": kernel_dims}, as_json)
        return 0

    if args.command == "verify":
        given = sorted({args.suite, args.suite_flag} - {None})
        if len(given) != 1:
            raise ParseError("give one suite, positional or --suite, not "
                             f"{' and '.join(given) or 'none'}")
        suite = given[0]
        if args.max < 0:
            raise ParseError(f"--max must be nonnegative: {args.max}")
        datum = _datum_from_args(args)
        config = RunConfig(
            type=args.type,
            cartan_matrix=datum.cartan if args.cartan_matrix else None,
            cutoff=_weight_arg(datum, args.cutoff, "cutoff")
            if args.cutoff else None,
            depth=datum.parse_root(args.depth) if args.depth else None,
            seed=args.seed,
            max=args.max,
            corrupt=args.corrupt,
        )
        report = run_suite(suite, config)
        _emit(report, as_json)
        return 0 if report["pass"] else 1

    return 2


def _word_str(word, sign: str) -> str:
    letter = "e" if sign == "plus" else "f"
    if not word:
        return "1"
    return "*".join(f"{letter}[{i + 1}]" for i in word)


if __name__ == "__main__":
    sys.exit(main())
