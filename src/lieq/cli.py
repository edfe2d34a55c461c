"""Command-line front end.

Exit codes: 0 when every named check passes (or for pure analysis),
2 when a verification check fails, 1 on usage or input errors.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .constructions import (
    CATALOG_HELP,
    CATALOG_NAMES,
    abelian,
    catalog,
    graded_power,
    grading_derivation,
)
from .derivations import (
    derivation_tower,
    derivations,
    diagonal_derivation_torus,
    is_complete,
    DerHomomorphism,
    NonzeroCenterError,
)
from .fileio import (
    AlgebraFileError,
    dumps_report,
    parse_algebra,
    report_to_dict,
    serialize_algebra,
)
from .liealg import DimensionCapError, LieAlgebra
from .linalg import q_str
from .weights import (
    lemma3_check,
    prop2_check,
    prop3_check,
    prop4_check,
    theorem1_pipeline,
    theorem2_check,
    theorem3_check,
)

class UsageError(ValueError):
    pass


def load_source(src: str) -> LieAlgebra:
    """catalog:<name> or a path to an algebra file.  An algebra whose
    dimension exceeds LIE_DIM_CAP is a usage error, raised before it is
    built."""
    if src.startswith("catalog:"):
        try:
            return catalog(src.split(":", 1)[1])
        except (KeyError, ValueError) as e:  # unknown name, count out of range, cap
            raise UsageError(f"{src}: {e.args[0]}") from None
    try:
        with open(src, "rb") as fh:
            return parse_algebra(fh.read())
    except OSError as e:
        raise UsageError(f"cannot read {src}: {e}") from None
    except (AlgebraFileError, DimensionCapError) as e:
        raise UsageError(f"{src}: {e}") from None


def _emit(doc: dict, out: str | None) -> None:
    text = dumps_report(doc)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def cmd_catalog(args) -> int:
    doc = {"command": "catalog list", "names": CATALOG_NAMES}
    _emit(doc, None)
    return 0


def cmd_analyze(args) -> int:
    g = load_source(args.src)
    try:
        ds = derivations(g)
    except DimensionCapError as e:
        raise UsageError(f"{args.src}: {e}") from None
    cert = is_complete(g, ds)
    series = g.series()
    doc = {
        "command": f"analyze {args.src}",
        "dim": g.dim,
        "labels": list(g.labels),
        "center_dim": cert.center_dim,
        "der_dim": cert.der_dim,
        "inner_dim": cert.inner_dim,
        "complete": cert.complete,
        "is_nilpotent": series.is_nilpotent,
        "is_solvable": series.is_solvable,
    }
    if cert.witness is not None:
        kind, w = cert.witness
        doc["witness_kind"] = kind
        if kind == "central":
            doc["witness"] = [q_str(x) for x in w]
        elif args.full:
            doc["witness"] = [[q_str(x) for x in row] for row in w.data]
    if args.full:
        doc["der_basis"] = [
            [[q_str(x) for x in row] for row in m.data] for m in ds.basis_mats
        ]
    _emit(doc, args.out)
    return 0


def cmd_construct(args) -> int:
    g = load_source(args.src)
    text = serialize_algebra(g)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_tower(args) -> int:
    g = load_source(args.src)
    try:
        rep = derivation_tower(g, max_steps=args.max_steps)
    except (NonzeroCenterError, DimensionCapError) as e:
        raise UsageError(str(e)) from None
    doc = {
        "command": f"tower {args.src}",
        "dims": list(rep.dims),
        "stabilized": rep.stabilized,
        "stable_index": rep.stable_index,
        "budget_exceeded": rep.budget_exceeded,
    }
    _emit(doc, args.out)
    return 0 if rep.stabilized else 2


def _theorem1_inputs(args):
    g = load_source(args.g)
    if args.torus == "grading":
        if not args.graded_power:
            raise UsageError("--torus grading requires --graded-power")
        gp = graded_power(g, args.graded_power)
        return gp.algebra, [grading_derivation(gp)]
    if args.graded_power:
        g = graded_power(g, args.graded_power).algebra
    if args.torus == "diagonal":
        mats = diagonal_derivation_torus(g)
        if not mats:
            raise UsageError("the diagonal derivation torus is zero")
        return g, mats
    raise UsageError("--torus must be 'grading' or 'diagonal'")


def cmd_verify(args) -> int:
    try:
        if args.theorem == "theorem1":
            g, mats = _theorem1_inputs(args)
            rep = theorem1_pipeline(g, mats)
        elif args.theorem == "theorem2":
            rep = theorem2_check(load_source(args.g))
        elif args.theorem == "theorem3":
            rep = theorem3_check(args.N, args.n)
        elif args.theorem == "lemma3":
            g = load_source(args.g)
            if args.phi == "identity":
                ds = derivations(g)
                phi = DerHomomorphism.identity_on_der(ds)
                rep = lemma3_check(ds.algebra, g, phi)
            else:
                s = abelian(args.s_dim)
                rep = lemma3_check(s, g, DerHomomorphism.zero(s, g))
        elif args.theorem == "prop2":
            rep = prop2_check(args.N)
        elif args.theorem == "prop3":
            rep = prop3_check(args.N)
        elif args.theorem == "prop4":
            rep = prop4_check(args.N)
        else:  # pragma: no cover
            raise UsageError(f"unknown verification {args.theorem}")
    except ValueError as e:  # torus, zero weight, cap or argument errors
        if isinstance(e, UsageError):
            raise
        raise UsageError(str(e)) from None
    doc = report_to_dict(rep)
    doc["command"] = f"verify {args.theorem}"
    _emit(doc, args.out)
    return 0 if rep.ok else 2


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lieq",
        description=(
            "Exact computations with rational Lie algebras: derivation "
            "algebras, completeness certificates, full graphs, and torus "
            "weight decompositions."
        ),
    )
    p.add_argument("--version", action="version", version=f"lieq {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("catalog", help="named algebra catalog")
    pc_sub = pc.add_subparsers(dest="catalog_command", required=True)
    pc_list = pc_sub.add_parser("list", help="list catalog names")
    pc_list.set_defaults(func=cmd_catalog)

    pa = sub.add_parser("analyze", help="dimensions, center, series, Der, completeness")
    pa.add_argument("src", help=f"catalog:<name> ({CATALOG_HELP}) or a file path")
    pa.add_argument("--out", help="also write the report to a file")
    pa.add_argument("--full", action="store_true", help="include full matrices")
    pa.set_defaults(func=cmd_analyze)

    pb = sub.add_parser("construct", help="build an algebra and write its file")
    pb.add_argument("src", help=f"catalog:<name> ({CATALOG_HELP}) or a file path")
    pb.add_argument("--out", help="output file (default: stdout)")
    pb.set_defaults(func=cmd_construct)

    pt = sub.add_parser("tower", help="derivation tower of a center-free algebra")
    pt.add_argument("src")
    pt.add_argument("--max-steps", type=int, default=4)
    pt.add_argument("--out")
    pt.set_defaults(func=cmd_tower)

    pv = sub.add_parser("verify", help="run a theorem or proposition pipeline")
    pv.add_argument(
        "theorem",
        choices=["theorem1", "theorem2", "theorem3", "lemma3", "prop2", "prop3", "prop4"],
    )
    pv.add_argument("--g", help="source algebra (catalog:<name> or file)")
    pv.add_argument("--graded-power", type=int, help="replace g by its graded power")
    pv.add_argument("--torus", choices=["grading", "diagonal"], default="grading")
    pv.add_argument("--phi", choices=["zero", "identity"], default="zero")
    pv.add_argument("--s-dim", type=int, default=1, help="abelian s dimension for lemma3 --phi zero")
    pv.add_argument("--N", type=int, default=1, help="Heisenberg parameter")
    pv.add_argument("--n", type=int, default=1, help="full-graph iteration depth")
    pv.add_argument("--out")
    pv.set_defaults(func=cmd_verify)
    return p


def run_command(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    needs_g = args.command in ("analyze", "construct", "tower") or (
        args.command == "verify"
        and args.theorem in ("theorem1", "theorem2", "lemma3")
    )
    try:
        if needs_g and getattr(args, "g", getattr(args, "src", None)) is None:
            raise UsageError(f"{args.command}: an algebra source is required (--g)")
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
