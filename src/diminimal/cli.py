"""Command line interface.

Exit codes: 0 success, 1 validation or usage error, 2 verification failure.
A reader that closes stdout before all output is written, as `| true`
does, also gives exit 1, with nothing on stderr; so does a stdout closed at
startup (`>&-`), for every command that writes to it.
All output is deterministic; rationals are printed as p/q (or a bare
integer), never as floats.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
from fractions import Fraction

from .locate import counts_at, isolate_eigenvalues
from .matrices import (format_rational, matrix_from_json, matrix_to_dot,
                       matrix_to_json, parse_rational)
from .oracle import OracleError, compare_counts
from .realize import realize_family, realize_integral, verify_certificate
from .trees import (Family, duplicate_branch, json_int, recognize_family, seed,
                    tree_from_json, tree_to_json)


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; here 2 is reserved for
    verification failures, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


class CliError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from exc


def _stdout():
    """sys.stdout, for every write the commands make.  It is None when fd 1
    was closed at startup, and that is treated like a reader that is gone."""
    if sys.stdout is None:
        raise BrokenPipeError(errno.EPIPE, "stdout is closed")
    return sys.stdout


def _dump(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    if out is None:
        _stdout().write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc}") from exc


def _load_tree(path: str):
    return tree_from_json(_load_json(path))


def _load_matrix_file(path: str):
    """Matrix files may carry an embedded certificate next to the matrix."""
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise CliError(f"{path} does not hold a JSON object")
    if "matrix" in obj:
        return matrix_from_json(obj["matrix"]), obj.get("certificate")
    return matrix_from_json(obj), None


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


_FAMILY_NAMES = {
    "uniform": Family.UNIFORM,
    "short-core": Family.SHORT_CORE,
    "mixed": Family.MIXED,
}


def cmd_seed(args) -> int:
    t = seed(_FAMILY_NAMES[args.family], args.diameter)
    _dump(tree_to_json(t), args.out)
    return 0


def cmd_unfold(args) -> int:
    t = _load_tree(args.tree)
    t2 = duplicate_branch(t, args.vertex, args.branch, args.copies)
    _dump(tree_to_json(t2), args.out)
    return 0


def cmd_recognize(args) -> int:
    t = _load_tree(args.tree)
    tag = recognize_family(t)
    out = _stdout()
    print(f"family: {tag.family.value}", file=out)
    print(f"diameter: {tag.diameter}", file=out)
    print("certificate: " + json.dumps(tag.certificate, sort_keys=True,
                                       separators=(",", ":")), file=out)
    return 0


def cmd_construct(args) -> int:
    t = _load_tree(args.tree)
    if args.integral:
        cert = realize_integral(t, args.alpha, args.beta)
    else:
        if args.beta is None:
            raise CliError("construct needs --beta unless --integral is given")
        cert = realize_family(t, args.alpha, args.beta)
    payload = {"matrix": matrix_to_json(cert.matrix),
               "certificate": cert.to_json()}
    _dump(payload, args.out)
    if args.out is not None:
        values = ", ".join(f"{format_rational(v)} (x{m})" for v, m in cert.dspec)
        print(f"wrote {args.out}: {cert.distinct_values} distinct eigenvalues: {values}",
              file=_stdout())
    return 0


def cmd_locate(args) -> int:
    m, _ = _load_matrix_file(args.matrix)
    c = counts_at(m, args.point)
    out = _stdout()
    print(f"below: {c.below}", file=out)
    print(f"equal: {c.equal}", file=out)
    print(f"above: {c.above}", file=out)
    return 0


def cmd_isolate(args) -> int:
    m, _ = _load_matrix_file(args.matrix)
    if args.width <= 0:
        raise CliError("--width must be positive")
    for iv in isolate_eigenvalues(m, args.width):
        print(f"({format_rational(iv.lo)}, {format_rational(iv.hi)}] "
              f"count={iv.count}", file=_stdout())
    return 0


def cmd_verify(args) -> int:
    m, cert = _load_matrix_file(args.matrix)
    if cert is None:
        raise CliError("no certificate embedded in the matrix file; "
                       "run construct with --out to produce one")
    try:
        dspec = [(parse_rational(e["value"]), json_int(e["multiplicity"]))
                 for e in cert["dspec"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"malformed certificate: {exc}") from exc
    problems = verify_certificate(m, dspec)
    if args.cross_check:
        for lam, _ in dspec:
            rep = compare_counts(m, lam)
            if rep.conclusive and not rep.agree:
                problems.append(f"float oracle disagrees at {format_rational(lam)}: "
                                f"exact {rep.exact}, approx {rep.approx}")
    if problems:
        for p in problems:
            print(f"FAIL: {p}", file=_stdout())
        return 2
    print(f"ok: {len(dspec)} distinct eigenvalues verified on {m.n} vertices",
          file=_stdout())
    return 0


def cmd_export(args) -> int:
    m, cert = _load_matrix_file(args.matrix)
    if args.format == "dot":
        _stdout().write(matrix_to_dot(m))
    else:
        payload = matrix_to_json(m)
        if cert is not None:
            payload = {"matrix": payload, "certificate": cert}
        _dump(payload, None)
    return 0


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on first use and reused by every later call."""
    p = _Parser(prog="diminimal",
                description="Exact eigenvalue location and minimum distinct "
                            "eigenvalue realization for weighted trees.")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("seed", help="emit a seed tree of a family")
    s.add_argument("--family", required=True, choices=sorted(_FAMILY_NAMES))
    s.add_argument("--diameter", required=True, type=int)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_seed)

    s = sub.add_parser("unfold", help="duplicate a branch of a tree")
    s.add_argument("--tree", required=True)
    s.add_argument("--vertex", required=True, type=int)
    s.add_argument("--branch", required=True, type=int,
                   help="child of --vertex whose branch is copied")
    s.add_argument("--copies", required=True, type=int)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_unfold)

    s = sub.add_parser("recognize", help="classify a tree into a family")
    s.add_argument("--tree", required=True)
    s.set_defaults(fn=cmd_recognize)

    s = sub.add_parser("construct", help="realize a matrix with diameter+1 "
                                         "distinct eigenvalues")
    s.add_argument("--tree", required=True)
    s.add_argument("--alpha", required=True, type=_rational_arg)
    s.add_argument("--beta", type=_rational_arg,
                   help="required unless --integral; with it, replaces the default")
    s.add_argument("--integral", action="store_true",
                   help="force an all-integer spectrum")
    s.add_argument("--out")
    s.set_defaults(fn=cmd_construct)

    s = sub.add_parser("locate", help="count eigenvalues against a point")
    s.add_argument("--matrix", required=True)
    s.add_argument("--point", required=True, type=_rational_arg)
    s.set_defaults(fn=cmd_locate)

    s = sub.add_parser("isolate", help="isolate the spectrum into intervals")
    s.add_argument("--matrix", required=True)
    s.add_argument("--width", required=True, type=_rational_arg)
    s.set_defaults(fn=cmd_isolate)

    s = sub.add_parser("verify", help="re-check an embedded certificate")
    s.add_argument("--matrix", required=True)
    s.add_argument("--cross-check", action="store_true",
                   help="also compare against the float oracle")
    s.set_defaults(fn=cmd_verify)

    s = sub.add_parser("export", help="re-emit a matrix as dot or json")
    s.add_argument("--matrix", required=True)
    s.add_argument("--format", required=True, choices=["dot", "json"])
    s.set_defaults(fn=cmd_export)
    return p


# options whose values are rationals and may start with a minus sign, which
# argparse would otherwise read as an option name ("-1/2" is not matched by
# its negative-number heuristic)
_RATIONAL_FLAGS = frozenset(
    {"--alpha", "--beta", "--point", "--width"})


def _fold_rational_flags(argv: list[str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _RATIONAL_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_fold_rational_flags(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.fn(args)
        if sys.stdout is not None:  # None when fd 1 was closed at startup
            sys.stdout.flush()
        return code
    except (CliError, OracleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader is gone: the flush at exit goes to devnull, not stderr
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
