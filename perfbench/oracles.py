"""Output checks, one per job kind, built only on ``exactref``.

``check(job, result)`` raises ``OracleError`` with a reason when the output
is wrong in any byte.  Every check first verifies the meaning of the output
with the benchmark's own arithmetic and then re-renders the bytes it read
from the values it verified, so a corrupted byte either changes a value that
is checked or breaks the re-rendering.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

import exactref as X


class OracleError(Exception):
    pass


@dataclass
class Result:
    code: int
    stdout: bytes
    stderr: bytes
    files: dict[str, bytes]


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise OracleError(reason)


def _text(data: bytes) -> str:
    try:
        return data.decode("ascii")
    except UnicodeDecodeError:
        raise OracleError("output is not ASCII") from None


def _json(data: bytes):
    """Parse JSON that must be exactly dynlab's rendering (indent 2, LF)."""
    text = _text(data)
    try:
        obj = json.loads(text)
    except ValueError:
        raise OracleError("output is not JSON") from None
    _require(json.dumps(obj, indent=2) + "\n" == text,
             "JSON is not in canonical form")
    return obj


def _rng(job) -> random.Random:
    return random.Random(" ".join(job.argv))


# -- grid ---------------------------------------------------------------------

def _svg(rows, d_max: int, n_max: int) -> str:
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 1000">\n',
        '<rect x="0" y="0" width="1000" height="1000" fill="white"/>\n',
        '<text x="500" y="998" font-size="20" text-anchor="middle">d</text>\n',
        '<text x="12" y="500" font-size="20" text-anchor="middle" '
        'transform="rotate(-90 12 500)">n</text>\n',
    ]
    parts += [f'<rect x="{d * 1000 // d_max}" y="{1000 - n * 1000 // n_max}" '
              'width="2" height="2"/>\n' for d, n in rows]
    parts.append("</svg>\n")
    return "".join(parts)


def check_scan(job, res: Result) -> None:
    d_max, n_max = job.spec["d_max"], job.spec["n_max"]
    _require(res.code == 0, f"exit code {res.code}")
    csv = _text(res.files.get("grid.csv", b""))
    _require(csv.startswith("d,n\n"), "CSV header")
    rows = []
    for line in csv[4:].split("\n")[:-1]:
        m = re.fullmatch(r"([1-9]\d*),([1-9]\d*)", line)
        _require(m is not None, f"CSV row {line[:30]!r}")
        rows.append((int(m.group(1)), int(m.group(2))))
    _require(rows == sorted(set(rows)), "CSV rows not strictly ordered")
    pairs = {d: X.squarefree_divisors(d) for d in range(1, d_max + 1)}
    for d, n in rows:
        _require(d <= d_max and n <= n_max, f"row {d},{n} outside the grid")
        _require(X.xn1_divides_necklace(d, n, pairs[d]), f"({d}, {n}) is no hit")
    listed = set(rows)
    rng = _rng(job)
    for _ in range(3000):
        d, n = rng.randint(1, d_max), rng.randint(1, n_max)
        if (d, n) not in listed:
            _require(not X.xn1_divides_necklace(d, n, pairs[d]),
                     f"hit ({d}, {n}) missing")
    _require(csv == "d,n\n" + "".join(f"{d},{n}\n" for d, n in rows),
             "CSV bytes")
    _require(res.stdout == f"{len(rows)} pairs written to grid.csv\n".encode(),
             "stdout")
    if "grid.svg" in res.files:
        _require(res.files["grid.svg"] == _svg(rows, d_max, n_max).encode(),
                 "SVG bytes")


def check_cover(job, res: Result) -> None:
    d, n = job.spec["d"], job.spec["n"]
    covered = X.xn1_divides_necklace(d, n)
    _require(res.code == (0 if covered else 3), f"exit code {res.code}")
    raw = res.files.get("cover.json", b"")
    cert = _json(raw)
    _require(list(cert) == ["d", "n", "usable_primes", "covered", "witnesses",
                            "failing_character"], "certificate keys")
    usable = [p for p, _ in X.factor(d) if n % p]
    _require(cert["d"] == str(d) and cert["n"] == n, "certificate d, n")
    _require(cert["usable_primes"] == usable, "usable primes")
    _require(cert["covered"] is covered, "verdict")
    wits = cert["witnesses"]
    phi = X.phi_by_gcd(n)
    _require(len(wits) == phi, "witness count is not phi(n)")
    for w in wits:
        _require(list(w) == ["chi", "p"], "witness keys")
        _require(w["p"] is None or w["p"] in usable, "witness prime")
    _check_characters([tuple(w["chi"]) for w in wits], phi)
    _check_witness_counts(n, usable, [w["p"] for w in wits], phi)
    failing = cert["failing_character"]
    _require((failing is None) == covered, "failing character")
    _require(covered or {"chi": failing, "p": None} in wits,
             "the failing character has a witness")
    if "--format" in job.argv:
        _require(res.stdout == raw, "stdout differs from the certificate")
        return
    cocore = X.cocore(d)
    lines = [f"d = {d}, n = {n}: {'covered' if covered else 'not covered'}",
             f"  usable primes: {usable}", f"  cocore(d) = {cocore}"]
    low = 0 if d % n else 1
    if covered and low <= cocore:
        lines.append(f"  universal relation: Phi_{{f,m,{n}}} divides "
                     f"Phi_{{f,{d}}} - 1 for every f of degree >= 2 "
                     f"and {low} <= m <= {cocore}")
    elif not covered:
        lines.append(f"  failing character exponents: {failing}")
    _require(res.stdout == "".join(s + "\n" for s in lines).encode(), "stdout")


def _check_characters(chis: list[tuple[int, ...]], phi: int) -> None:
    """All exponent vectors of a product of cyclic groups, in lexicographic
    order, with phi(n) of them."""
    width = len(chis[0])
    _require(all(len(c) == width for c in chis), "character length")
    orders = [max(c[i] for c in chis) + 1 for i in range(width)]
    _require(math.prod(orders) == phi, "character group order")
    _require(chis == list(itertools.product(*(range(o) for o in orders))),
             "characters are not the full group in order")


def _subgroup_size(gens: list[int], n: int) -> int:
    group, frontier = {1 % n}, [1 % n]
    while frontier:
        nxt = []
        for u in frontier:
            for g in gens:
                v = u * g % n
                if v not in group:
                    group.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(group)


def _check_witness_counts(n: int, usable: list[int], ps: list, phi: int) -> None:
    """Each witness is the first usable prime p with chi(p) = 1.  The
    characters with chi(p) = 1 for some p in a set S number phi(n) / |<S>|,
    so by inclusion-exclusion the witnesses drawn from the first i usable
    primes are counted without knowing the characters' values."""
    for i in range(1, len(usable) + 1):
        expected = 0
        for r in range(1, i + 1):
            for subset in itertools.combinations(usable[:i], r):
                expected += (-1)**(r + 1) * (phi // _subgroup_size(list(subset), n))
        got = sum(1 for p in ps if p in usable[:i])
        _require(got == expected, f"witness count for the first {i} primes")


def check_sweep(job, res: Result) -> None:
    _require(res.code == 0 and res.stdout == b"[]\n",
             "the two routes disagree somewhere")


# -- cyclo --------------------------------------------------------------------

def _necklace_times_d(d: int) -> list[int]:
    out = [0] * (d + 1)
    for e, mu in X.squarefree_divisors(d):
        out[d // e] += mu
    return out


def _shifted(n: int) -> list[int]:
    out = X.cyclotomic(n)
    out[0] -= 1
    return X.trim(out)


def _scan_inputs(job) -> list[tuple[str, list[int]]]:
    flag, v = job.spec["flag"], job.spec["value"]
    if flag == "--both":
        return [(f"{v}*M_{v}", _necklace_times_d(v)),
                (f"Phi_{v} - 1", _shifted(v))]
    if flag == "--necklace":
        return [(f"{v}*M_{v}", _necklace_times_d(v))]
    if flag == "--shifted":
        return [(f"Phi_{v} - 1", _shifted(v))]
    return [(v, job.spec["coeffs"])]


def _cyclo_product(k: int, found: list[tuple[int, int]]) -> list[int]:
    prod = [0] * k + [1]
    for n, mult in found:
        for _ in range(mult):
            prod = X.pmul(prod, X.cyclotomic(n))
    return prod


def _exact_quotient(num: list[int], den: list[int]) -> list[int]:
    """num / den for a monic integer den; OracleError on a remainder."""
    rem = list(num)
    dd = len(den) - 1
    _require(len(rem) > dd, "factors exceed the input degree")
    quot = [0] * (len(rem) - dd)
    for k in range(len(rem) - 1, dd - 1, -1):
        c = rem[k]
        if c:
            quot[k - dd] = c
            for i in range(dd + 1):
                rem[k - dd + i] -= c * den[i]
    _require(not any(rem[:dd]), "reported factors do not divide the input")
    return quot


def _check_cofactor(cofactor: list, degree: int) -> None:
    """The cofactor keeps none of x, x - 1, x + 1 (values at 0, 1, -1)."""
    _require(len(cofactor) - 1 == degree, "cofactor degree")
    _require(all(X.horner(cofactor, t) != 0 for t in (0, 1, -1)),
             "cofactor still has x, Phi_1 or Phi_2")


def _check_found(job, found: list[tuple[int, int]], k: int) -> None:
    _require(all(m >= 1 for _, m in found), "multiplicity")
    _require([n for n, _ in found] == sorted({n for n, _ in found}),
             "indices not increasing")
    if job.spec["flag"] == "--poly":
        mults = dict(found)
        _require(k == job.spec["x_multiplicity"], "x multiplicity")
        _require(all(mults.get(n, 0) >= m
                     for n, m in job.spec["planted"].items()),
                 "a planted cyclotomic factor is missing")


def _check_report(job, report: dict, poly: list[int]) -> None:
    _require(list(report) == ["x_multiplicity", "cyclotomic",
                              "cofactor_degree", "cofactor_coeffs"],
             "report keys")
    k = report["x_multiplicity"]
    found = []
    for entry in report["cyclotomic"]:
        _require(list(entry) == ["n", "mult"], "cyclotomic entry keys")
        found.append((entry["n"], entry["mult"]))
    _check_found(job, found, k)
    cofactor = []
    for s in report["cofactor_coeffs"]:
        try:
            c = Fraction(s)
        except ValueError:
            raise OracleError("cofactor coefficient") from None
        _require(str(c) == s, "cofactor coefficient not canonical")
        cofactor.append(c)
    _require(not cofactor or cofactor[-1] != 0, "cofactor not normalized")
    _check_cofactor(cofactor, report["cofactor_degree"])
    product = X.pmul(_cyclo_product(k, found), cofactor)
    _require(product == [Fraction(c) for c in poly],
             "x^k * prod Phi_n^mult * cofactor differs from the input")


_SCAN_LINE = re.compile(r"(.+): x\^(\d+) \* (.+) \* cofactor of degree (\d+)")


def _scan_line(name: str, k: int, found, degree: int) -> str:
    cyclo = " ".join(f"Phi_{n}" + (f"^{m}" if m > 1 else "")
                     for n, m in found) or "(none)"
    return f"{name}: x^{k} * {cyclo} * cofactor of degree {degree}\n"


def check_cyclo(job, res: Result) -> None:
    _require(res.code == 0, f"exit code {res.code}")
    inputs = _scan_inputs(job)
    if "--format" in job.argv:
        obj = _json(res.stdout)
        if job.spec["flag"] == "--both":
            _require(list(obj) == ["d", "necklace", "shifted_cyclotomic"]
                     and obj["d"] == job.spec["value"], "keys")
            reports = [obj["necklace"], obj["shifted_cyclotomic"]]
        else:
            reports = [obj]
        for report, (_, poly) in zip(reports, inputs):
            _check_report(job, report, poly)
        return
    lines = _text(res.stdout).split("\n")
    _require(len(lines) == len(inputs) + 1 and lines[-1] == "", "line count")
    expected = ""
    for line, (name, poly) in zip(lines, inputs):
        m = _SCAN_LINE.fullmatch(line)
        _require(m is not None, "scan line")
        k, degree = int(m.group(2)), int(m.group(4))
        found = []
        if m.group(3) != "(none)":
            for item in m.group(3).split(" "):
                f = re.fullmatch(r"Phi_(\d+)(?:\^(\d+))?", item)
                _require(f is not None, "cyclotomic item")
                found.append((int(f.group(1)), int(f.group(2) or 1)))
        _check_found(job, found, k)
        cofactor = _exact_quotient(poly, _cyclo_product(k, found))
        _check_cofactor(X.trim(cofactor), degree)
        expected += _scan_line(name, k, found, degree)
    _require(res.stdout == expected.encode(), "stdout")


# -- dynatomic ----------------------------------------------------------------

def _ring_f(spec) -> tuple[str, list]:
    """f as dynlab holds it: Fp coefficients reduced, Qa rows as Fractions."""
    ring, f, p = spec["ring"], spec["f"], spec["p"]
    if ring == "Fp":
        return ring, X.trim([c % p for c in f])
    if ring == "Qa":
        return ring, [[Fraction(c) for c in row] for row in f]
    return ring, [Fraction(c) for c in f]


def _point_value(f: list, x0, m: int, n: int, mod: int | None):
    """Phi_{f,m,n}(x0) as (A, B) with value A / B, by iterating f on x0."""
    def step(y):
        v = X.horner(f, y)
        return v % mod if mod else v

    orbit = [x0]
    for _ in range(m + n):
        orbit.append(step(orbit[-1]))

    def phi_n(s: int):
        num = den = 1
        for e, mu in X.squarefree_divisors(n):
            term = orbit[s + n // e] - orbit[s]
            if mu == 1:
                num *= term
            else:
                den *= term
        return num, den

    a, b = phi_n(m)
    if m:
        c, d = phi_n(m - 1)
        a, b = a * d, b * c
    return (a % mod, b % mod) if mod else (a, b)


def _as_ints(cs: list) -> list:
    """Integer-valued Fractions as ints, which keeps Horner fast."""
    if all(getattr(c, "denominator", 1) == 1 for c in cs):
        return [int(c) for c in cs]
    return cs


def check_dynatomic(job, res: Result) -> None:
    spec = job.spec
    _require(res.code == 0, f"exit code {res.code}")
    ring, f = _ring_f(spec)
    m, n = spec["m"], spec["n"]
    label = f"Phi_{{f,{n}}}" if spec["d_form"] else f"Phi_{{f,{m},{n}}}"
    if "--format" in job.argv:
        obj = _json(res.stdout)
        _require(list(obj) == ["f", "text", "json"], "keys")
        _require(obj["f"] == X.format_poly(f, ring), "f")
        text = obj["text"]
    else:
        out = _text(res.stdout)
        _require(out.startswith(label + " = ") and out.endswith("\n"), "label")
        text = out[len(label) + 3:-1]
    try:
        coeffs = X.parse_poly(text, ring)
    except (ValueError, ZeroDivisionError) as exc:
        raise OracleError(f"polynomial text: {exc}") from None
    k = len(spec["f"]) - 1
    _require(len(coeffs) - 1 == X.gen_degree(k, m, n), "degree formula")
    one = [1] if ring == "Qa" else 1
    _require(coeffs[-1] == one, "not monic")
    if "--format" in job.argv:
        fmt = X.format_qa if ring == "Qa" else str
        payload = {"ring": ring, **({"p": spec["p"]} if ring == "Fp" else {}),
                   "coeffs": [fmt(c) for c in coeffs]}
        _require(obj["json"] == payload, "JSON coefficients")
    rng = _rng(job)
    mod = spec["p"] if ring == "Fp" else None
    checked = 0
    for _ in range(40):
        if ring == "Qa":
            a0 = rng.randint(-4, 4)
            fx = _as_ints([X.horner(c, a0) for c in f])
            px = _as_ints([X.horner(c, a0) for c in coeffs])
        else:
            fx, px = _as_ints(f), _as_ints(coeffs)
        # |x0| >= 2, so no single changed coefficient or exponent can vanish
        x0 = rng.randrange(2, mod - 1) if mod else rng.choice((-1, 1)) * rng.randint(2, 9)
        a, b = _point_value(fx, x0, m, n, mod)
        if b == 0:
            continue
        value = X.horner(px, x0)
        lhs = value * b - a
        _require((lhs % mod if mod else lhs) == 0,
                 f"value at x = {x0} differs from the iterated product")
        checked += 1
        if checked == 3:
            break
    _require(checked == 3, "no usable evaluation point")
    if "--format" not in job.argv:
        _require(res.stdout == f"{label} = {X.format_poly(coeffs, ring)}\n"
                 .encode(), "stdout")


# -- relation -----------------------------------------------------------------

_EVIDENCE_LINE = re.compile(
    r"  \[(Q|Qa)\] (.+?)(?: \(seed (\d+)\))?: "
    r"(?:divides, cofactor degree (\d+)|remainder of degree (\d+))")


def _relation_text(payload: dict) -> str:
    t, cond = payload["tuple"], payload["conditions"]
    lines = [f"tuple (m, n, c, d) = ({t['m']}, {t['n']}, {t['c']}, {t['d']})",
             f"  cond1 (m > c or n does not divide d): {cond['cond1']}",
             f"  cond2 (cocore(d) covers the preperiod): {cond['cond2']}",
             f"  cond3 (x^{t['n']} - 1 divides M_{t['d']}): {cond['cond3']}",
             f"  alt   (d > 1, c - 1 >= m, n = 1): {cond['alt']}",
             f"  admissible: {cond['admissible']}"]
    for ev in payload["evidence"]:
        seed = "" if ev["seed"] is None else f" (seed {ev['seed']})"
        detail = (f"divides, cofactor degree {ev['cofactor_degree']}"
                  if ev["divides"] else
                  f"remainder of degree {ev['remainder_degree']}")
        lines.append(f"  [{ev['ring']}] {ev['family']}{seed}: {detail}")
    if payload["evidence"]:
        good = sum(1 for ev in payload["evidence"] if ev["divides"])
        lines.append(f"  evidence: {good}/{len(payload['evidence'])} divide")
    return "".join(line + "\n" for line in lines)


def _payload_from_text(text: str) -> dict:
    """Rebuild the certificate fields that the text report shows."""
    lines = text.split("\n")
    conds = {}
    for line, key in zip(lines[1:6], ("cond1", "cond2", "cond3", "alt",
                                      "admissible")):
        value = line.rsplit(": ", 1)[-1]
        _require(value in ("True", "False"), "condition line")
        conds[key] = value == "True"
    evidence = []
    for line in lines[6:]:
        m = _EVIDENCE_LINE.fullmatch(line)
        if m is None:
            break
        divides = m.group(4) is not None
        evidence.append({
            "family": m.group(2), "ring": m.group(1),
            "seed": None if m.group(3) is None else int(m.group(3)),
            "divides": divides,
            "cofactor_degree": int(m.group(4)) if divides else None,
            "remainder_degree": None if divides else int(m.group(5))})
    return {"conditions": conds, "evidence": evidence}


def _family_degree(text: str) -> int:
    m = re.match(r"x\^(\d+)", text.replace(" ", ""))
    _require(m is not None, f"family {text!r}")
    return int(m.group(1))


def _random_families(seed: int, count: int) -> list[list[int]]:
    """The documented draw: monic, degree 2..4, coefficients in [-9, 9],
    from ``random.Random(seed)``."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k = rng.randint(2, 4)
        out.append([rng.randint(-9, 9) for _ in range(k)] + [1])
    return out


def _check_evidence(spec, payload: dict, admissible: bool) -> None:
    m, n, c, d = spec["tuple"]
    legs = payload["evidence"]
    want = spec["trials"] + 1 if admissible or spec["force"] else 0
    _require(len(legs) == want, f"{len(legs)} evidence legs, expected {want}")
    draws = _random_families(spec["seed"], len(legs) - 1)
    for i, ev in enumerate(legs):
        _require(list(ev) == ["family", "ring", "seed", "divides",
                              "cofactor_degree", "remainder_degree"],
                 "evidence keys")
        if i == 0:
            family, spec_a = spec["family"], spec["specialize"]
            parametric = "a" in family
            label = family
            if parametric and spec_a is not None:
                label = f"{family} at a = {Fraction(spec_a.split('=')[1])}"
            ring = "Qa" if parametric and spec_a is None else "Q"
            _require(ev["family"] == label and ev["ring"] == ring
                     and ev["seed"] is None, "family leg")
            k = _family_degree(family)
        else:
            f = draws[i - 1]
            k = len(f) - 1
            _require(ev["family"] == X.format_poly(f, "Q"),
                     "random family is not the seeded draw")
            _require(ev["ring"] == "Q" and ev["seed"] == spec["seed"],
                     "random leg")
        top, sub = X.gen_degree(k, c, d), X.gen_degree(k, m, n)
        if ev["divides"]:
            _require(ev["cofactor_degree"] == top - sub
                     and ev["remainder_degree"] is None, "cofactor degree")
        else:
            _require(ev["cofactor_degree"] is None
                     and 0 <= ev["remainder_degree"] < sub, "remainder degree")
        if admissible:
            _require(ev["divides"], "an admissible tuple was falsified")


def check_relation(job, res: Result) -> None:
    spec = job.spec
    m, n, c, d = spec["tuple"]
    conds = X.relation_conditions(m, n, c, d)
    admissible = conds["admissible"]
    _require(res.code == (0 if admissible else 2), f"exit code {res.code}")
    as_json = "--format" in job.argv
    if "relation.json" in job.files:
        raw = res.files.get("relation.json", b"")
        if as_json:
            _require(raw == res.stdout, "--out bytes differ from stdout")
        payload = _json(raw)
    elif as_json:
        payload = _json(res.stdout)
    else:
        payload = {"tuple": {"m": m, "n": n, "c": c, "d": d},
                   **_payload_from_text(_text(res.stdout))}
    _require(list(payload) == ["tuple", "conditions", "evidence"], "keys")
    _require(payload["tuple"] == {"m": m, "n": n, "c": c, "d": d}, "tuple")
    _require(payload["conditions"] == conds
             and list(payload["conditions"]) == list(conds), "conditions")
    _check_evidence(spec, payload, admissible)
    if not as_json:
        _require(res.stdout == _relation_text(payload).encode(), "stdout")


CHECKS = {"scan": check_scan, "cover": check_cover, "sweep": check_sweep,
          "cyclo": check_cyclo, "dynatomic": check_dynatomic,
          "relation": check_relation}


def check(job, res: Result) -> None:
    CHECKS[job.kind](job, res)
