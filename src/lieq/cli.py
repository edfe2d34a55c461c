"""Command-line front end.

Exit codes: 0 when every named check passes (or for pure analysis),
2 when a verification check fails, or an internal check fails (a bug in
lieq, reported as "internal check failed: ..." on stderr), 1 on usage or
input errors.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

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
)
from .fileio import (
    AlgebraFileError,
    dumps_report,
    parse_algebra,
    report_to_dict,
    serialize_algebra,
)
from .liealg import DimensionCapError, LieAlgebra, clip, read_count
from .linalg import InvariantError, ZERO, q_str
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
    built.  A refused catalog name is echoed by `clip`; so is the path of a
    file that cannot be read, followed by the OSError's strerror, which does
    not quote it."""
    if src.startswith("catalog:"):
        try:
            return catalog(src.split(":", 1)[1])
        except (KeyError, ValueError) as e:  # unknown name, count out of range, cap
            raise UsageError(f"{clip(src)}: {e.args[0]}") from None
    try:
        with open(src, "rb") as fh:
            return parse_algebra(fh.read())
    except OSError as e:
        raise UsageError(f"cannot read {clip(src)}: {e.strerror}") from None
    except (AlgebraFileError, DimensionCapError) as e:
        raise UsageError(f"{src}: {e}") from None


# An integer option is read as a catalog count is.  argparse echoes all of
# a value whose type raises ValueError, or that its choices refuse, and only
# the message of an ArgumentTypeError, which read_count and _choice bound.
_count_option = partial(read_count, what="count", error=argparse.ArgumentTypeError)


def _choice(names: list, s: str) -> str:
    """s when it is one of names.  Any other value is refused with the
    message argparse's choices give, but echoed by `clip`.  The argument
    keeps choices=names for its usage line; argparse checks them only after
    this type accepts the value."""
    if s not in names:
        shown = ", ".join(map(repr, names))
        raise argparse.ArgumentTypeError(f"invalid choice: {clip(s)!r} (choose from {shown})")
    return s


def _add_choice(parser: argparse.ArgumentParser, name: str, names: list, **kw) -> None:
    parser.add_argument(name, type=partial(_choice, names), choices=names, **kw)


def _write(path: str, text: str) -> None:
    """Write text to path; a path that cannot be written is a usage error,
    echoed by `clip` and followed by the OSError's strerror, as in
    `load_source`."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise UsageError(f"cannot write {clip(path)}: {e.strerror}") from None


def _emit(doc: dict, out: str | None) -> None:
    text = dumps_report(doc)
    if out:
        _write(out, text)
    sys.stdout.write(text)


def cmd_catalog(args) -> int:
    doc = {"command": "catalog list", "names": CATALOG_NAMES}
    _emit(doc, None)
    return 0


def _matrix_strs(d: dict, n: int) -> list:
    """The n x n matrix with the sparse row-major entries d, as rows of
    'p/q' strings."""
    return [[q_str(d.get(r * n + c, ZERO)) for c in range(n)] for r in range(n)]


def cmd_analyze(args) -> int:
    g = load_source(args.src)
    try:
        ds = derivations(g)
    except DimensionCapError as e:
        raise UsageError(f"{args.src}: {e}") from None
    cert = is_complete(ds)
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
            doc["witness"] = _matrix_strs(w, g.dim)
    if args.full:
        doc["der_basis"] = [_matrix_strs(d, g.dim) for d in ds.space.rows.values()]
    _emit(doc, args.out)
    return 0


def cmd_construct(args) -> int:
    g = load_source(args.src)
    text = serialize_algebra(g)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_tower(args) -> int:
    g = load_source(args.src)
    rep = derivation_tower(g, max_steps=args.max_steps)
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
        if args.graded_power is None:
            raise UsageError("--torus grading requires --graded-power")
        n = args.graded_power
        return graded_power(g, n), [grading_derivation(g, n)]
    if args.graded_power is not None:
        g = graded_power(g, args.graded_power)
    torus = diagonal_derivation_torus(g)
    if not torus:
        raise UsageError("the diagonal derivation torus is zero")
    return g, torus


def cmd_verify(args) -> int:
    if args.theorem == "theorem1":
        rep = theorem1_pipeline(*_theorem1_inputs(args))
    elif args.theorem == "theorem2":
        rep = theorem2_check(load_source(args.g))
    elif args.theorem == "theorem3":
        rep = theorem3_check(args.N, args.n)
    elif args.theorem == "lemma3":
        g = load_source(args.g)
        if args.phi == "identity":
            ds = derivations(g)
            rep = lemma3_check(ds.algebra, g, ds.space.rows.values())
        else:
            s = abelian(args.s_dim)
            rep = lemma3_check(s, g, [{}] * s.dim)
    elif args.theorem == "prop2":
        rep = prop2_check(args.N)
    elif args.theorem == "prop3":
        rep = prop3_check(args.N)
    else:
        rep = prop4_check(args.N)
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
    pt.add_argument("--max-steps", type=_count_option, default=4)
    pt.add_argument("--out")
    pt.set_defaults(func=cmd_tower)

    pv = sub.add_parser("verify", help="run a theorem or proposition pipeline")
    _add_choice(
        pv, "theorem", ["theorem1", "theorem2", "theorem3", "lemma3", "prop2", "prop3", "prop4"]
    )
    pv.add_argument("--g", help="source algebra (catalog:<name> or file)")
    pv.add_argument("--graded-power", type=_count_option, help="replace g by its graded power")
    _add_choice(pv, "--torus", ["grading", "diagonal"], default="grading")
    _add_choice(pv, "--phi", ["zero", "identity"], default="zero")
    pv.add_argument(
        "--s-dim", type=_count_option, default=1, help="abelian s dimension for lemma3 --phi zero"
    )
    pv.add_argument("--N", type=_count_option, default=1, help="Heisenberg parameter")
    pv.add_argument("--n", type=_count_option, default=1, help="full-graph iteration depth")
    pv.add_argument("--out")
    pv.set_defaults(func=cmd_verify)
    return p


def run_command(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    # argparse requires the src of analyze, construct and tower itself
    needs_g = args.command == "verify" and args.theorem in ("theorem1", "theorem2", "lemma3")
    try:
        if needs_g and args.g is None:
            raise UsageError("verify: an algebra source is required (--g)")
        return args.func(args)
    except ValueError as e:  # UsageError, torus, zero weight, cap or argument errors
        print(f"error: {e}", file=sys.stderr)
        return 1
    except InvariantError as e:
        print(f"internal check failed: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
