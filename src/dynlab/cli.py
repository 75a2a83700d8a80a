"""Command-line front end.

One binary, six subcommands: ``necklace``, ``cyclo-factors``, ``dynatomic``,
``relation``, ``scan``, ``cover``.  All output is byte-deterministic for
fixed flags: JSON has a fixed key order and exactly the bytes of
``json.dumps(value, indent=2)`` (written by ``_json_pieces``, without the
pure-Python encoder), CSV uses LF endings with exactly one trailing newline,
and the SVG scatter uses integer coordinates only.

Exit codes: 0 success; ``relation`` exits 2 when the tuple is not
admissible and 4 when an admissible tuple is falsified by evidence (which
would be a counterexample and deserves a bug report); ``cover`` exits 3
when the character group is not covered; I/O and usage problems exit 1.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Iterable, Iterator

from .characters import covers
from .cyclotomic import cyclo_factor_scan, cyclotomic_poly
from .dynatomic import (RelationTuple, _refuse_over_cap_dynatomic,
                        build_relation_certificate, dynatomic_poly,
                        generalized_dynatomic)
from .errors import (DomainError, ExactDivisionError, ResourceLimitError,
                     _ascii_int, degree_cap)
from .necklace import dynamical_necklace, fast_xn1_divides, necklace_poly
from .numtheory import core_and_cocore, divisors, squarefree_divisors
from .polycore import (QA, QQ, _SPACE, PrimeField, Polynomial,
                       parse_polynomial)


# A piece longer than this many characters is written in slices of it.
_SLICE = 1 << 16


def _write_pieces(handle, pieces: Iterable[str]) -> None:
    """Write the pieces, then a newline unless the last one ends with it.

    ``pieces`` is any iterable of strings, a generator included, and is
    consumed once.  A text handle encodes each write into one bytes copy, so
    a piece longer than _SLICE characters goes in slices of that length, and
    no copy of it is made whole.  A shorter piece is written as it is.
    """
    piece = ""
    for piece in pieces:
        if len(piece) > _SLICE:
            for k in range(0, len(piece), _SLICE):
                handle.write(piece[k:k + _SLICE])
        else:
            handle.write(piece)
    if not piece.endswith("\n"):
        handle.write("\n")


def _emit(*pieces: str) -> None:
    _write_pieces(sys.stdout, pieces)


def _write_file(path: str, pieces: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        _write_pieces(handle, pieces)


def _json_pieces(value) -> list[str]:
    """The text of ``json.dumps(value, indent=2)``, as a list of pieces.

    ``value`` is built from dict (str keys), list, tuple, str, int, bool and
    None; anything else raises TypeError.  An array may also be an iterator
    (a generator, say): it is consumed once and rendered exactly as the list
    of its items would be, so its items need not exist all at once.  The
    whole document is rendered before anything is written, so a failure
    (say, an int past the int-to-str digit limit) leaves no partial output.
    Each array item starts a new piece, and a list or tuple of plain ints is
    one join, so no copy of the whole document or of a long array is made.
    A string value that needs no escape (printable ASCII without ``"`` or
    ``\\``) is itself a piece, so no copy of it is made either; any other
    string is a piece as quoted.
    """
    # here, not at module level: most commands never encode
    from json.encoder import encode_basestring_ascii as quote

    out: list[str] = []

    def put(head: str, value, nl: str) -> str:
        """Render value at indentation nl after head; return the text that is
        still to be written (pieces already in ``out`` come first)."""
        if isinstance(value, str):
            if (value.isascii() and value.isprintable() and '"' not in value
                    and "\\" not in value):
                out.extend((head + '"', value))
                return '"'
            out.extend((head, quote(value)))
            return ""
        if value is None or value is True or value is False:
            return head + ("null" if value is None else
                           "true" if value else "false")
        if isinstance(value, int):
            return head + int.__repr__(value)
        if isinstance(value, dict):
            if not value:
                return head + "{}"
            inner = nl + "  "
            text, sep = head + "{", inner
            for key, item in value.items():
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not "
                                    f"{type(key).__name__}")
                text = put(text + sep + quote(key) + ": ", item, inner)
                sep = "," + inner
            return text + nl + "}"
        inner = nl + "  "
        if isinstance(value, (list, tuple)):
            if value and all(type(item) is int for item in value):
                return (head + "[" + inner
                        + ("," + inner).join(map(int.__repr__, value))
                        + nl + "]")
        elif not hasattr(value, "__next__"):
            raise TypeError(f"Object of type {type(value).__name__} "
                            f"is not JSON serializable")
        sep, comma = head + "[" + inner, "," + inner
        for item in value:
            text = put(sep, item, inner)
            if text:
                out.append(text)
            sep = comma
        return nl + "]" if sep is comma else head + "[]"

    out.append(put("", value, "\n"))
    return out


def _write_certificate(make_json, path: str | None, fmt: str) -> None:
    """Encode the value make_json() returns once, for the file at path and
    for --format json."""
    if path or fmt == "json":
        pieces = _json_pieces(make_json())
        if path:
            _write_file(path, pieces)
        if fmt == "json":
            _emit(*pieces)


def _emit_poly(fmt: str, head: dict, label: str, poly: Polynomial) -> int:
    """Print poly as ``label = text``, or as JSON after the head fields."""
    if fmt == "json":
        _emit(*_json_pieces({**head, "text": poly.to_text(),
                             "json": poly.to_json_dict()}))
    else:
        _emit(f"{label} = ", poly.to_text())
    return 0


# -- necklace ---------------------------------------------------------------

def _cmd_necklace(args) -> int:
    if args.f is not None:
        f = parse_polynomial(args.f)
        poly = dynamical_necklace(f, args.d)
        label = f"M_{{f,{args.d}}} for f = {f.to_text()}"
    else:
        poly = necklace_poly(args.d)
        label = f"M_{args.d}"
    return _emit_poly(args.format, {"d": args.d, "f": args.f}, label, poly)


# -- cyclo-factors ----------------------------------------------------------

def _format_scan_text(name: str, report_dict: dict) -> str:
    cyclo = " ".join(
        f"Phi_{entry['n']}" + (f"^{entry['mult']}" if entry["mult"] > 1 else "")
        for entry in report_dict["cyclotomic"]) or "(none)"
    return (f"{name}: x^{report_dict['x_multiplicity']} * {cyclo} "
            f"* cofactor of degree {report_dict['cofactor_degree']}")


def _cmd_cyclo_factors(args) -> int:
    both = args.both
    necklace = args.necklace if both is None else both
    shifted = args.shifted if both is None else both
    # (JSON key, text name, polynomial), one entry per scan, in output order
    scans = []
    if args.poly is not None:
        scans.append(("poly", args.poly, parse_polynomial(args.poly, QQ)))
    if necklace is not None:
        scans.append(("necklace", f"{necklace}*M_{necklace}",
                      necklace_poly(necklace) * necklace))
    if shifted is not None:
        scans.append(("shifted_cyclotomic", f"Phi_{shifted} - 1",
                      cyclotomic_poly(shifted) - 1))
    reports = [(key, name, cyclo_factor_scan(poly).to_json_dict())
               for key, name, poly in scans]
    if args.format == "text":
        for _, name, report in reports:
            _emit(_format_scan_text(name, report))
    elif both is None:
        _emit(*_json_pieces(reports[0][2]))
    else:
        _emit(*_json_pieces({"d": both, **{key: r for key, _, r in reports}}))
    return 0


# -- dynatomic --------------------------------------------------------------

def _cmd_dynatomic(args) -> int:
    ring = PrimeField(args.p) if args.p is not None else None
    f = parse_polynomial(args.f, ring)
    if args.m is not None or args.n is not None:
        if args.m is None or args.n is None:
            raise DomainError("--m and --n go together")
        if args.d is not None:
            raise DomainError("--d does not go with --m/--n")
        m, n, label = args.m, args.n, f"Phi_{{f,{args.m},{args.n}}}"
    elif args.d is not None:
        m, n, label = 0, args.d, f"Phi_{{f,{args.d}}}"
    else:
        raise DomainError("need --d or --m/--n")
    # the builders refuse deg(f) < 2 and m < 0 or n < 1 with their messages
    if f.degree >= 2 and m >= 0 and n >= 1:
        _refuse_over_cap_dynatomic(f.degree, m, n, degree_cap())
    poly = (dynatomic_poly(f, n) if args.d is not None
            else generalized_dynatomic(f, m, n))
    return _emit_poly(args.format, {"f": f.to_text()}, label, poly)


# -- relation ---------------------------------------------------------------

def _parse_specialize(text: str) -> Fraction:
    name, _, value = text.partition("=")
    if name.strip(_SPACE) != "a" or not value:
        raise DomainError("--specialize expects a=<rational>, e.g. a=-5/4")
    return QQ.coerce(value.strip(_SPACE))


def _cmd_relation(args) -> int:
    if args.degree_max is not None and args.degree_max < 0:
        raise DomainError(f"--degree-max must be >= 0, got {args.degree_max}")
    cap = degree_cap(args.degree_max)
    t = RelationTuple(m=args.m, n=args.n, c=args.c, d=args.d)
    family = parse_polynomial(args.family)
    label = args.family
    if args.specialize is not None:
        value = _parse_specialize(args.specialize)
        if family.ring is not QA:
            raise DomainError(f"--specialize needs a family in a; "
                              f"{args.family!r} does not involve a")
        family = family.specialize(value)
        label = f"{args.family} at a = {value}"
    cert = build_relation_certificate(
        t, family=family, family_label=label, trials=args.trials,
        seed=args.seed, cap=cap, force=args.force)
    # nothing is printed when a degree is past Python's int-to-str digit
    # limit (none before 3.10.7, where the getter is missing)
    digits = getattr(sys, "get_int_max_str_digits", int)()
    if digits and any(ev.cofactor_degree is not None
                      and ev.cofactor_degree >= 10**digits
                      for ev in cert.evidence):
        raise ResourceLimitError(
            f"cofactor degree of the ({t.c}, {t.d}) leg has more than "
            f"{digits} digits, past Python's int-to-str limit")
    _write_certificate(cert.to_json_dict, args.out, args.format)
    if args.format == "text":
        cond = cert.conditions
        lines = [f"tuple (m, n, c, d) = ({t.m}, {t.n}, {t.c}, {t.d})",
                 f"  cond1 (m > c or n does not divide d): {cond.cond1}",
                 f"  cond2 (cocore(d) covers the preperiod): {cond.cond2}",
                 f"  cond3 (x^{t.n} - 1 divides M_{t.d}): {cond.cond3}",
                 f"  alt   (d > 1, c - 1 >= m, n = 1): {cond.alt}",
                 f"  admissible: {cond.admissible}"]
        for ev in cert.evidence:
            seed = "" if ev.seed is None else f" (seed {ev.seed})"
            if ev.divides:
                detail = f"divides, cofactor degree {ev.cofactor_degree}"
            else:
                detail = f"remainder of degree {ev.remainder_degree}"
            lines.append(f"  [{ev.ring}] {ev.family}{seed}: {detail}")
        if cert.evidence:
            good = sum(1 for ev in cert.evidence if ev.divides)
            lines.append(f"  evidence: {good}/{len(cert.evidence)} divide")
        _emit("\n".join(lines))
    if not cert.conditions.admissible:
        return 2
    if cert.evidence and not cert.all_divide:
        return 4
    return 0


# -- scan -------------------------------------------------------------------

def scan_rows(d_max: int, n_max: int) -> list[tuple[int, int]]:
    """All grid pairs where x^n - 1 divides M_d, ordered by (d, n).

    Only candidate periods are tested.  ``fast_xn1_divides(d, n)`` holds only
    if every residue class of the indices d/e mod n sums to zero, the class of
    d itself (e = 1, mu = +1) among them; so some e with mu(e) = -1 has
    d/e = d (mod n), that is, n divides d - d/e.  The candidates for d are the
    divisors n <= n_max of those differences, and ``fast_xn1_divides``
    decides each one.  As 0 < d - d/e < d, every row has n < d.
    """
    if d_max < 1 or n_max < 1:
        raise DomainError("scan bounds must be >= 1")
    rows = []
    for d in range(1, d_max + 1):
        candidates = {n for e, mu in squarefree_divisors(d) if mu < 0
                      for n in divisors(d - d // e) if n <= n_max}
        rows += [(d, n) for n in sorted(candidates) if fast_xn1_divides(d, n)]
    return rows


def scan_csv(rows: list[tuple[int, int]]) -> Iterator[str]:
    """The CSV lines, header first, one at a time; written, never joined."""
    yield "d,n\n"
    for d, n in rows:
        yield f"{d},{n}\n"


def scan_svg(rows: list[tuple[int, int]], d_max: int,
             n_max: int) -> Iterator[str]:
    """Minimal deterministic scatter: one 2px square per divisibility hit,
    yielded line by line like ``scan_csv``."""
    yield '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 1000">\n'
    yield '<rect x="0" y="0" width="1000" height="1000" fill="white"/>\n'
    yield '<text x="500" y="998" font-size="20" text-anchor="middle">d</text>\n'
    yield ('<text x="12" y="500" font-size="20" text-anchor="middle" '
           'transform="rotate(-90 12 500)">n</text>\n')
    for d, n in rows:
        px = d * 1000 // d_max
        py = 1000 - n * 1000 // n_max
        yield f'<rect x="{px}" y="{py}" width="2" height="2"/>\n'
    yield "</svg>\n"


def _cmd_scan(args) -> int:
    rows = scan_rows(args.d_max, args.n_max)
    _write_file(args.out, scan_csv(rows))
    if args.svg:
        _write_file(args.svg, scan_svg(rows, args.d_max, args.n_max))
    _emit(f"{len(rows)} pairs written to {args.out}")
    return 0


# -- cover ------------------------------------------------------------------

def _cmd_cover(args) -> int:
    cert = covers(args.d, args.n)
    _write_certificate(cert.lazy_json_dict, args.certificate, args.format)
    if args.format == "text":
        cocore = core_and_cocore(args.d)[1]
        state = "covered" if cert.covered else "not covered"
        _emit(f"d = {args.d}, n = {args.n}: {state}")
        _emit(f"  usable primes: {list(cert.usable_primes)}")
        _emit(f"  cocore(d) = {cocore}")
        if cert.covered:
            low = 0 if args.d % args.n != 0 else 1
            if low <= cocore:
                _emit(f"  universal relation: Phi_{{f,m,{args.n}}} divides "
                      f"Phi_{{f,{args.d}}} - 1 for every f of degree >= 2 "
                      f"and {low} <= m <= {cocore}")
        elif cert.failing_character is not None:
            _emit(f"  failing character exponents: "
                  f"{list(cert.failing_character)}")
    return 0 if cert.covered else 3


# -- parser wiring ----------------------------------------------------------

def _add_format(sub) -> None:
    sub.add_argument("--format", choices=("text", "json"), default="text")


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors print the usage, then take main's error path (exit 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise DomainError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="dynlab",
        description="necklace / cyclotomic / dynatomic polynomial toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("necklace", help="print a (dynamical) necklace polynomial")
    p.add_argument("--d", type=_ascii_int, required=True)
    p.add_argument("--f", type=str, default=None,
                   help="polynomial for the dynamical variant M_{f,d}")
    _add_format(p)
    p.set_defaults(func=_cmd_necklace)

    p = subs.add_parser("cyclo-factors",
                        help="cyclotomic factor scan of a rational polynomial")
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--poly", type=str, default=None)
    one.add_argument("--necklace", type=_ascii_int, default=None, metavar="D",
                     help="scan d*M_d")
    one.add_argument("--shifted", type=_ascii_int, default=None, metavar="N",
                     help="scan Phi_N - 1")
    one.add_argument("--both", type=_ascii_int, default=None, metavar="D",
                     help="scan d*M_d and Phi_d - 1 side by side")
    _add_format(p)
    p.set_defaults(func=_cmd_cyclo_factors)

    p = subs.add_parser("dynatomic", help="print a (generalized) dynatomic polynomial")
    p.add_argument("--f", type=str, required=True)
    p.add_argument("--d", type=_ascii_int, default=None)
    p.add_argument("--m", type=_ascii_int, default=None)
    p.add_argument("--n", type=_ascii_int, default=None)
    p.add_argument("--p", type=_ascii_int, default=None,
                   help="prime: interpret f over the field with p elements")
    _add_format(p)
    p.set_defaults(func=_cmd_dynatomic)

    p = subs.add_parser("relation",
                        help="evaluate and certify a divisibility relation tuple")
    p.add_argument("--m", type=_ascii_int, required=True)
    p.add_argument("--n", type=_ascii_int, required=True)
    p.add_argument("--c", type=_ascii_int, required=True)
    p.add_argument("--d", type=_ascii_int, required=True)
    p.add_argument("--family", type=str, default="x^2+a")
    p.add_argument("--specialize", type=str, default=None, metavar="a=VAL")
    p.add_argument("--trials", type=_ascii_int, default=20)
    p.add_argument("--degree-max", type=_ascii_int, default=None)
    p.add_argument("--seed", type=_ascii_int, default=0)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--force", action="store_true",
                   help="run evidence even for non-admissible tuples")
    _add_format(p)
    p.set_defaults(func=_cmd_relation)

    p = subs.add_parser("scan", help="grid scan of x^n - 1 | M_d to CSV/SVG")
    p.add_argument("--d-max", type=_ascii_int, required=True)
    p.add_argument("--n-max", type=_ascii_int, required=True)
    p.add_argument("--out", type=str, required=True)
    p.add_argument("--svg", type=str, default=None)
    p.set_defaults(func=_cmd_scan)

    p = subs.add_parser("cover", help="hyperplane-cover divisibility certificate")
    p.add_argument("--d", type=_ascii_int, required=True)
    p.add_argument("--n", type=_ascii_int, required=True)
    p.add_argument("--certificate", type=str, default=None)
    _add_format(p)
    p.set_defaults(func=_cmd_cover)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ResourceLimitError, ExactDivisionError, ValueError,
            OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
