"""Command line front end.

Every subcommand is a thin wrapper over the library: parse arguments,
load JSON, call the construction or check, report, and translate the
outcome into an exit code.  Exit 0 means success, 1 means a check
failed, 2 means a usage problem (bad flags, missing or malformed
files).  All output is deterministic for fixed flags; the only
environment input is POLYFORGE_BUDGET.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import arrangement as arr_mod
from . import cct as cct_mod
from . import hirschpath
from . import morse as morse_mod
from . import projective as proj_mod
from .complexcore import SimplicialComplex
from .exactfield import ONE, ZERO, FieldElem

DEFAULT_BUDGET = 10 ** 6


class _UsageError(Exception):
    pass


@dataclass(frozen=True)
class CertificateBundle:
    """Named checks over one subject, re-verifiable from the embedded data."""

    kind: str
    subject: dict
    checks: tuple
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def to_json(self) -> dict:
        doc = {
            "format": "polyforge/1",
            "kind": self.kind,
            "subject": self.subject,
            "checks": [
                {"name": name, "pass": passed, "witness": witness}
                for name, passed, witness in self.checks
            ],
            "pass": self.ok,
        }
        doc.update(self.extra)
        return doc


def _load_json(path: str, what: str = "a JSON object") -> dict:
    """Read a JSON file whose top level is an object; anything else is a
    usage error, reported as the file not being `what`."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _UsageError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise _UsageError(f"{path} is not {what}: its top level is "
                          f"{type(data).__name__}, not an object")
    return data


def _load_document(path: str, parse, what: str,
                   errors=(KeyError, TypeError, ValueError), kind=None):
    """Parse a JSON file; a `kind` other than the one given, a zero
    denominator, or an exception in `errors` from `parse`, is a usage
    error, because it means the file is malformed."""
    data = _load_json(path, what)
    if kind is not None and data.get("kind") != kind:
        raise _UsageError(f"{path} is not {what}: its kind is "
                          f"{data.get('kind')!r}, not {kind!r}")
    try:
        return parse(data)
    except ZeroDivisionError as exc:
        raise _UsageError(f"{path} is not {what}: it has a zero "
                          "denominator") from exc
    except errors as exc:
        raise _UsageError(f"{path} is not {what}: {exc}") from exc


def _load_complex(path: str) -> SimplicialComplex:
    return _load_document(path, SimplicialComplex.from_json, "a complex document")


_quote = json.encoder.encode_basestring_ascii


def _json_text(x, indent: str = "") -> str:
    """``json.dumps(x, indent=2)`` nested ``indent`` deep, joined here, not
    by json's pure-Python indenting encoder.  Strings get json's C quoting;
    floats, empty containers, keys that are not strings and other types go
    to json.dumps, shifted right (JSON has newlines only between items)."""
    kind = type(x)
    if kind is str:
        return _quote(x)
    if kind is int:
        return int.__repr__(x)
    if kind is bool or x is None:
        return json.dumps(x)
    inner = indent + "  "
    if (kind is list or kind is tuple) and x:
        items = [_quote(v) if type(v) is str else _json_text(v, inner) for v in x]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if kind is dict and x and all(type(k) is str for k in x):
        items = [_quote(k) + ": " + (_quote(v) if type(v) is str
                                     else _json_text(v, inner)) for k, v in x.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    return json.dumps(x, indent=2).replace("\n", "\n" + indent)


def _emit(doc: dict, out: str | None) -> None:
    text = _json_text(doc) + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write {out}: {exc}") from exc
        print(f"wrote {out}")
    else:
        print(text, end="")


def _report(checks) -> bool:
    """Print a verdict line per check; whether every check passed."""
    for name, passed, _ in checks:
        print(f"{name}: {'pass' if passed else 'FAIL'}")
    return all(passed for _, passed, _ in checks)


def _budget(args) -> int:
    if args.budget is not None:
        return args.budget
    try:
        return _int_at_least(0)(os.environ.get("POLYFORGE_BUDGET", str(DEFAULT_BUDGET)))
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(f"POLYFORGE_BUDGET: {exc}") from None


def _fe_text(x: FieldElem) -> str:
    return repr(x)[3:-1]


def _point_text(p) -> str:
    return "(" + ", ".join(_fe_text(x) for x in p) + ")"


def _parse_facet(text: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise _UsageError(f"facet must be comma-separated vertex ids: {text!r}") from exc


_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?(x(?:\^(\d+))?)?$")


def _rational(numeral: str, what: str) -> Fraction:
    """Fraction(numeral) for a matched numeral; a zero denominator is a
    usage error naming ``what``."""
    try:
        return Fraction(numeral)
    except ZeroDivisionError:
        raise _UsageError(f"cannot parse {what}: zero denominator") from None


def _parse_poly(text: str):
    """Coefficients, ascending, of a polynomial like 'x^2 - 2' or '7x-3'."""
    s = text.replace(" ", "").replace("*", "")
    if not s:
        raise _UsageError("empty polynomial")
    coeffs = {}
    for term in re.findall(r"[+-]?[^+-]+", s):
        m = _TERM.match(term)
        if not m or m.end() != len(term) or (not m.group(2) and not m.group(3)):
            raise _UsageError(f"cannot parse polynomial term {term!r}")
        sign = -1 if m.group(1) == "-" else 1
        coef = _rational(m.group(2) or "1", f"polynomial term {term!r}")
        if m.group(3):
            exp = int(m.group(4)) if m.group(4) else 1
        else:
            exp = 0
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * coef
    degree = max(coeffs)
    return [coeffs.get(i, Fraction(0)) for i in range(degree + 1)]


_ROOTS = {"2": FieldElem.sqrt2, "3": FieldElem.sqrt3, "6": FieldElem.sqrt6}


def _parse_value(text: str) -> FieldElem:
    """A rational like '3/7', or a rational multiple of sqrt2/sqrt3/sqrt6."""
    s = text.replace(" ", "")
    m = re.fullmatch(r"[+-]?\d+(?:/\d+)?", s)
    if m:
        return FieldElem(_rational(s, f"value {text!r}"))
    m = re.fullmatch(r"([+-])?(?:(\d+(?:/\d+)?)\*?)?sqrt([236])", s)
    if m:
        coef = _rational(m.group(2) or "1", f"value {text!r}")
        if m.group(1) == "-":
            coef = -coef
        return _ROOTS[m.group(3)]() * FieldElem(coef)
    raise _UsageError(f"cannot parse value {text!r}")


# ---------------------------------------------------------------------------
# hirsch

def _cmd_hirsch_segment(args) -> int:
    c = _load_complex(args.complex)
    path = hirschpath.combinatorial_segment(
        c, _parse_facet(args.from_facet), _parse_facet(args.to_facet))
    try:
        hirschpath.validate_path(c, path)
    except ValueError as exc:
        ridge = ("ridge-adjacency", False, str(exc))
    else:
        ridge = ("ridge-adjacency", True, "each consecutive pair shares a ridge")
    non_revisiting = hirschpath.is_non_revisiting(path)
    bound = hirschpath.hirsch_bound(c)
    bundle = CertificateBundle(
        kind="facet-path",
        subject={
            "facet_count": len(c.facets),
            "dim": c.dim,
            "length": path.length(),
            "hirsch_bound": bound,
        },
        checks=(
            ridge,
            ("non-revisiting", non_revisiting,
             "every vertex star is met along a contiguous subpath"),
        ),
        extra={"path": path.to_json()},
    )
    print(f"segment of length {path.length()}, "
          f"non-revisiting: {'yes' if non_revisiting else 'no'}")
    _emit(bundle.to_json(), args.out)
    return 0 if bundle.ok else 1


def _cmd_hirsch_diameter(args) -> int:
    c = _load_complex(args.complex)
    diam = hirschpath.dual_diameter(c)
    bound = hirschpath.hirsch_bound(c)
    ok = diam <= bound
    print(f"dual diameter = {diam}")
    print(f"hirsch bound = {bound}")
    if args.out:
        bundle = CertificateBundle(
            kind="diameter",
            subject={"facet_count": len(c.facets), "dim": c.dim,
                     "diameter": diam, "hirsch_bound": bound},
            checks=(("within-hirsch-bound", ok, f"{diam} <= {bound}"),),
        )
        _emit(bundle.to_json(), args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# morse

def _cmd_morse_collapse(args) -> int:
    c = _load_complex(args.complex)
    budget = _budget(args)
    ledger = None
    try:
        if args.out_j is not None:
            if args.target is None:
                raise _UsageError("--out-j needs --target")
            d = _load_complex(args.target)
            matching, ledger = morse_mod.out_j_collapse(
                c, d, args.out_j, budget=budget)
        else:
            target = _load_complex(args.target) if args.target else None
            matching = morse_mod.collapse_search(c, target=target,
                                                 budget=budget)
    except morse_mod.SearchExhausted as exc:
        print(f"FAIL: {exc}")
        return 1
    print(f"collapse found: {len(matching.pairs)} pairs")
    if ledger is not None:
        print(f"ledger: {len(ledger)} crossing faces "
              f"{[list(f) for f in ledger]}")
    doc = {"format": "polyforge/1", "kind": "morse-matching"}
    doc.update(matching.to_json())
    if ledger is not None:
        doc["ledger"] = [list(f) for f in ledger]
    _emit(doc, args.out)
    return 0


def _cmd_morse_validate(args) -> int:
    c = _load_complex(args.complex)
    matching = _load_document(args.matching, morse_mod.MorseMatching.from_json,
                              "a matching document")
    ok = morse_mod.validate_matching(c, matching)
    print(f"matching with {len(matching.pairs)} pairs: "
          f"{'valid' if ok else 'invalid'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# arrangements

def _cmd_arr_betti(args) -> int:
    arr = _load_document(args.file, arr_mod.arrangement_from_json,
                         "an arrangement document")
    value = arr_mod.gm_betti(arr, args.i)
    print(f"b_{args.i} = {value}")
    if args.out:
        _emit({"format": "polyforge/1", "kind": "betti",
               "i": args.i, "value": value}, args.out)
    return 0


# ---------------------------------------------------------------------------
# cct

def _cmd_cct_generate(args) -> int:
    # the verdicts at width n come from the record of the generating fold
    record = cct_mod.TubeRecord()
    geo = cct_mod.generate(args.n, record)
    checks, normals = cct_mod.certify(geo, record)
    expected = 12 * (args.n + 1)
    checks.append(("vertex-count", len(geo.coords) == expected,
                   f"f0 = {len(geo.coords)}, expected {expected}"))
    extra = {"cct": geo.to_json()}
    if normals:
        extra["facet_normals"] = {
            str(i): [x.to_json() for x in n] for i, n in normals.items()}
    bundle = CertificateBundle(
        kind="cct-bundle",
        subject={"width": geo.width, "f0": len(geo.coords)},
        checks=tuple(checks),
        extra=extra,
    )
    ok = _report(bundle.checks)
    print(f"f0 = {len(geo.coords)}")
    _emit(bundle.to_json(), args.out)
    return 0 if ok else 1


def _cmd_cct_verify(args) -> int:
    data = _load_json(args.file, "a tube document")
    kind = data.get("kind")
    if kind == "cct-bundle":
        inner = data.get("cct", {})
    elif kind == "cct":
        inner = data
    else:
        raise _UsageError(f"{args.file} holds no tube document")
    try:
        geo = cct_mod.GeoCCT.from_json(inner)
    except (KeyError, TypeError, ValueError) as exc:
        raise _UsageError(f"{args.file} is malformed: {exc}") from exc
    # a full recomputation: the same checks from a fresh record
    return 0 if _report(cct_mod.certify(geo)[0]) else 1


def _cmd_cct_kappa(args) -> int:
    chain = cct_mod.kappa_chain(args.upto)
    for i, point in enumerate(chain):
        lam_exact = cct_mod.clifford_lambda_exact(point)
        lam_float = cct_mod.clifford_lambda(point)
        print(f"kappa[{i:>2}] = {_point_text(point)}   "
              f"lambda = {_fe_text(lam_exact)} = {format(lam_float, '.6g')}")
    return 0


# ---------------------------------------------------------------------------
# proj

def _cmd_proj_staudt(args) -> int:
    coeffs = _parse_poly(args.poly)
    value = None if args.at is None else _parse_value(args.at)
    prog = proj_mod.compile_polynomial(coeffs)
    print(f"program with {len(prog.steps)} steps for coefficients "
          f"{[str(c) for c in coeffs]}")
    if value is not None:
        result = proj_mod.evaluate_slp(prog, {"x": (value, ZERO, ONE)})
        out_point = result[prog.outputs[0]]
        is_root = proj_mod.proj_equal(out_point, (ZERO, ZERO, ONE))
        print(f"evaluated at {args.at}: {_point_text(out_point)}")
        print(f"root: {'yes' if is_root else 'no'}")
    if args.out:
        _emit(prog.to_json(), args.out)
    return 0


def _cmd_proj_lawrence(args) -> int:
    fields = _load_document(args.config, proj_mod.PPConfig.fields_from_json,
                            "a point configuration document",
                            (AttributeError, KeyError, TypeError, ValueError),
                            kind="ppconfig")
    # a ValueError from PPConfig is a failed vertex or free-point check
    cfg = proj_mod.PPConfig(**fields)
    lifted = proj_mod.lawrence_extension(cfg)
    normal, offset = proj_mod.lawrence_face_certificate(lifted)
    f0 = len(lifted.polytope_vertices)
    expected = len(cfg.polytope_vertices) + 2 * len(cfg.free_points)
    bundle = CertificateBundle(
        kind="lawrence",
        subject={
            "ambient_dim": lifted.ambient_dim,
            "f0": f0,
            "source_dim": cfg.ambient_dim,
            "free_count": len(cfg.free_points),
        },
        checks=(
            ("vertex-certification", True,
             "every declared vertex is outside the hull of the others"),
            ("count-formula", f0 == expected, f"{f0} vertices"),
            ("face-certificate", True,
             f"normal {_point_text(normal)}, offset {_fe_text(offset)}"),
        ),
        extra={"config": lifted.to_json()},
    )
    print(f"lifted to dimension {lifted.ambient_dim} with {f0} vertices")
    _emit(bundle.to_json(), args.out)
    return 0 if bundle.ok else 1


def _cmd_proj_kconfig(args) -> int:
    k = proj_mod.build_k_configuration()
    cert = k.certificate
    checks = ()
    if args.verify:
        from .cct import seed_ct1
        replay_ok = proj_mod.frame_replay(k.points, k.derivation)
        ring = {k.points[name] for name in k.ct_vertex_names}
        checks = (
            ("replay", replay_ok,
             "all derived points reproduced from the nine generators"),
            ("coplanarity", cert["rank_at_parameter"] == 4,
             f"six ring points have rank {cert['rank_at_parameter']}"),
            ("coplanarity-alternative", cert["rank_at_alternative"] == 5,
             f"rank {cert['rank_at_alternative']} at parameter "
             f"{cert['alternative']}"),
            ("tube-match", ring == set(seed_ct1().coords),
             "ring points equal the width-1 tube vertices"),
        )
    bundle = CertificateBundle(
        kind="k-config",
        subject={
            "f0": len(k.points),
            "ring_points": len(k.ct_vertex_names),
            "companion_points": len(k.free_names),
            "points": {name: [x.to_json() for x in p]
                       for name, p in sorted(k.points.items())},
        },
        checks=checks,
        extra={"certificate": {
            "parameter": cert["parameter"].to_json(),
            "pinning": [str(c) for c in cert["pinning"]],
            "six_points": list(cert["six_points"]),
            "rank_at_parameter": cert["rank_at_parameter"],
            "alternative": str(cert["alternative"]),
            "rank_at_alternative": cert["rank_at_alternative"],
        }},
    )
    print(f"{len(k.points)} points "
          f"({len(k.ct_vertex_names)} tube vertices + "
          f"{len(k.free_names)} companions)")
    ok = _report(checks)
    _emit(bundle.to_json(), args.out)
    return 0 if ok else 1


def _cmd_proj_pcctp(args) -> int:
    counts = proj_mod.pcctp_counts(args.n)
    print(f"width {args.n}: dimension {counts['dim']}, "
          f"vertices {counts['f0']}")
    if args.out:
        _emit({"format": "polyforge/1", "kind": "pcctp-counts", **counts},
              args.out)
    return 0


# ---------------------------------------------------------------------------
# wiring

def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _arg(*flags, **options):
    return flags, options


_OUT = _arg("--out", metavar="FILE", help="write the JSON artifact here")

# (group, command, handler, arguments), in the order usage and help list
# them; _OUT first marks a command that writes a document
_COMMANDS = (
    ("hirsch", "segment", _cmd_hirsch_segment, (
        _OUT, _arg("--complex", required=True),
        _arg("--from", dest="from_facet", required=True),
        _arg("--to", dest="to_facet", required=True))),
    ("hirsch", "diameter", _cmd_hirsch_diameter, (
        _OUT, _arg("--complex", required=True))),
    ("morse", "collapse", _cmd_morse_collapse, (
        _OUT, _arg("--complex", required=True), _arg("--target"),
        _arg("--out-j", dest="out_j", type=_int_at_least(0), default=None),
        _arg("--budget", type=_int_at_least(0), default=None,
             help="search node budget (default POLYFORGE_BUDGET "
                  f"or {DEFAULT_BUDGET})"))),
    ("morse", "validate", _cmd_morse_validate, (
        _arg("--complex", required=True), _arg("--matching", required=True))),
    ("arr", "betti", _cmd_arr_betti, (
        _OUT, _arg("--file", required=True),
        _arg("--i", type=_int_at_least(0), required=True))),
    ("cct", "generate", _cmd_cct_generate, (
        _OUT, _arg("--n", type=_int_at_least(1), required=True))),
    ("cct", "verify", _cmd_cct_verify, (_arg("--file", required=True),)),
    ("cct", "kappa", _cmd_cct_kappa, (
        _arg("--upto", type=_int_at_least(0), required=True),)),
    ("proj", "staudt", _cmd_proj_staudt, (
        _arg("--poly", required=True), _arg("--at"),
        _arg("--out", "--emit", dest="out", metavar="FILE",
             help="write the program here"))),
    ("proj", "lawrence", _cmd_proj_lawrence, (
        _OUT, _arg("--config", required=True))),
    ("proj", "k-config", _cmd_proj_kconfig, (
        _OUT, _arg("--verify", action="store_true"))),
    ("proj", "pcctp", _cmd_proj_pcctp, (
        _OUT, _arg("--n", type=_int_at_least(1), required=True))),
)


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser for ``argv``: when argv[:2] names a command, only that
    command and its group; any other argv (help, errors) gets every
    command.  Each level's metavar lists all its choices, so usage lines
    and "invalid choice" errors name them either way."""
    rows = [r for r in _COMMANDS if list(r[:2]) == list(argv[:2])]

    def listing(names):
        return "{" + ",".join(dict.fromkeys(names)) + "}"

    parser = argparse.ArgumentParser(
        prog="polyforge",
        description="exact certificates for paths, collapses, "
                    "arrangements, tubes, and incidence constructions")
    groups = parser.add_subparsers(
        dest="group", metavar=listing(r[0] for r in _COMMANDS))
    commands = {}
    for group, name, handler, arguments in rows or _COMMANDS:
        if group not in commands:
            commands[group] = groups.add_parser(group).add_subparsers(
                dest="command",
                metavar=listing(r[1] for r in _COMMANDS if r[0] == group))
        sub = commands[group].add_parser(name)
        for flags, options in arguments:
            sub.add_argument(*flags, **options)
        sub.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"FAIL: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
