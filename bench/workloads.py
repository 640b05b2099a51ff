"""Seeded workloads for the loopspace benchmark, and the checks on their output.

Every series here is a pair of plain int lists (ascending coefficients,
numerator and denominator) built by this file's own arithmetic, never by
the library.  The hypothesis checks on generated pairs and the checks on
the CLI's output are therefore independent of the code being measured.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

Poly = tuple[int, ...]

ONE: Poly = (1,)
ZERO: Poly = (0,)
T: Poly = (0, 1)
ONE_MINUS_T: Poly = (1, -1)


def padd(p: Poly, q: Poly) -> Poly:
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return tuple(out)


def pneg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def pmul(p: Poly, q: Poly) -> Poly:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)


def ptrim(p: Poly) -> Poly:
    out = list(p)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def series_coeffs(num: Poly, den: Poly, bound: int) -> list[int]:
    """Coefficients 0..bound of num/den; den(0) must be 1."""
    out: list[int] = []
    for q in range(bound + 1):
        acc = num[q] if q < len(num) else 0
        for k in range(1, min(q, len(den) - 1) + 1):
            acc -= den[k] * out[q - k]
        out.append(acc)
    return out


def times_den_is_num(coeffs: list[int], num: Poly, den: Poly) -> bool:
    """True when den * coeffs == num modulo t^(len(coeffs))."""
    for q in range(len(coeffs)):
        acc = 0
        for k in range(min(q, len(den) - 1) + 1):
            acc += den[k] * coeffs[q - k]
        if acc != (num[q] if q < len(num) else 0):
            return False
    return True


@dataclass(frozen=True)
class Space:
    """A space expression in the CLI's language with its series num/den."""

    text: str
    num: Poly
    den: Poly
    diagonal_null: bool
    prec: int = 3  # 1 wedge, 2 smash, 3 atom or function call


def sphere(n: int) -> Space:
    return Space(f"S^{n}", (0,) * n + (1,), ONE, True)


def projective(n: int | None) -> Space:
    if n is None:
        return Space("RP^inf", T, ONE_MINUS_T, False)
    return Space(f"RP^{n}", (0,) + (1,) * n, ONE, n == 1)


POINT = Space("pt", ZERO, ONE, True)


def _paren(s: Space, min_prec: int) -> str:
    return s.text if s.prec >= min_prec else f"({s.text})"


def wedge(a: Space, b: Space) -> Space:
    return Space(
        f"{_paren(a, 1)} v {_paren(b, 2)}",
        padd(pmul(a.num, b.den), pmul(b.num, a.den)),
        pmul(a.den, b.den),
        a.diagonal_null and b.diagonal_null,
        1,
    )


def smash(a: Space, b: Space) -> Space:
    return Space(
        f"{_paren(a, 2)} ^ {_paren(b, 3)}",
        pmul(a.num, b.num),
        pmul(a.den, b.den),
        a.diagonal_null or b.diagonal_null,
        2,
    )


def susp(a: Space) -> Space:
    return Space(f"susp({a.text})", pmul(T, a.num), a.den, True)


def cone(a: Space) -> Space:
    return Space(f"cone({a.text})", ZERO, ONE, True)


def hypotheses_hold(a: Space, y: Space) -> bool:
    """A diagonal-null, Y path-connected, both denominators 1 at t = 0."""
    return a.diagonal_null and y.num[0] == 0 and a.den[0] == 1 and y.den[0] == 1


def closed_form(a: Space, y: Space) -> tuple[Poly, Poly]:
    """Unreduced ((1-t)P(Y) + tP(A)) / (1 - t - (1-t)P(Y) - tP(A))."""
    den_ya = pmul(y.den, a.den)
    y_part = pmul(ONE_MINUS_T, pmul(y.num, a.den))
    a_part = pmul(T, pmul(a.num, y.den))
    num = padd(y_part, a_part)
    den = padd(pmul(ONE_MINUS_T, den_ya), pneg(num))
    return num, den


@dataclass
class Command:
    """One CLI invocation and what its output must satisfy."""

    argv: list[str]
    kind: str  # "compute", "verify" or "collapse"
    sub: Space
    ambient: Space
    degree: int = 20
    fmt: str = "plain"

    def check(self, code: int, out: str) -> str | None:
        """None when the output is right, else a one-line reason."""
        if code != 0:
            return f"exit code {code}"
        lines = out.splitlines()
        if self.kind == "verify":
            return self._check_verify(lines)
        if self.kind == "collapse":
            return None if lines and lines[-1] == "equal" else "collapse did not print 'equal'"
        return self._check_compute(out, lines)

    def _check_verify(self, lines: list[str]) -> str | None:
        if not lines or lines[-1] != f"agree through degree {self.degree}":
            return "verify did not print 'agree through degree N'"
        num, den = closed_form(self.sub, self.ambient)
        if lines[0] != "closed form: " + _fmt(series_coeffs(num, den, self.degree)):
            return "verify printed a closed form that differs from the expected series"
        return None

    def _check_compute(self, out: str, lines: list[str]) -> str | None:
        printed_num = printed_den = None
        if self.fmt == "plain":
            fields = dict(line.split(": ", 1) for line in lines)
            printed_num, printed_den = _ints(fields["num"]), _ints(fields["den"])
            coeffs = _ints(fields["coeffs"])
        elif self.fmt == "json":
            payload = json.loads(out)
            printed_num, printed_den = tuple(payload["numerator"]), tuple(payload["denominator"])
            coeffs = payload["coefficients"]
            if payload["degree"] != self.degree:
                return "compute printed the wrong degree"
        else:
            if lines[0] != "degree,coefficient":
                return "compute csv header is wrong"
            rows = [line.split(",") for line in lines[1:]]
            if [int(q) for q, _ in rows] != list(range(len(rows))):
                return "compute csv degrees are not 0..N"
            coeffs = [int(c) for _, c in rows]
        if len(coeffs) != self.degree + 1:
            return "compute printed the wrong number of coefficients"
        num, den = closed_form(self.sub, self.ambient)
        if not times_den_is_num(coeffs, num, den):
            return "coefficients times the expected denominator are not the numerator"
        if printed_den is not None:
            if not times_den_is_num(coeffs, printed_num, printed_den):
                return "coefficients times the printed den are not the printed num"
            if ptrim(pmul(printed_num, den)) != ptrim(pmul(num, printed_den)):
                return "printed num/den is not the expected series"
        return None


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text.strip("[]").split(","))


def _fmt(values: list[int]) -> str:
    return "[" + ",".join(str(v) for v in values) + "]"


@dataclass
class Workload:
    commands: list[Command]
    catalog: list[dict] = field(default_factory=list)


CATALOG_PLACEHOLDER = "{catalog}"


def _chain(rng: random.Random, parts: list[Space]) -> Space:
    """Join parts left to right with randomly chosen wedges and smashes."""
    out = parts[0]
    for p in parts[1:]:
        out = wedge(out, p) if rng.random() < 0.5 else smash(out, p)
    return out


def _draw_pair(rng: random.Random, draw) -> tuple[Space, Space]:
    """Draw (A, Y) until the pair meets the hypotheses, so no command exits 2."""
    while True:
        a, y = draw(rng)
        if hypotheses_hold(a, y):
            return a, y


# --- expand-long -------------------------------------------------------------

def _expand_atom(rng: random.Random) -> Space:
    kind = rng.randrange(10)
    if kind < 3:
        return sphere(rng.randint(1, 4))
    if kind < 5:
        return projective(rng.randint(1, 4))
    if kind < 8:
        return projective(None)
    if kind == 8:
        return susp(_expand_atom(rng))
    return cone(_expand_atom(rng)) if rng.random() < 0.5 else POINT


def _expand_space(rng: random.Random) -> Space:
    return _chain(rng, [_expand_atom(rng) for _ in range(rng.randint(1, 3))])


def _growth_bits(a: Space, y: Space) -> float:
    """Bits per degree of the loop series' coefficients, read at degree 200."""
    num, den = closed_form(a, y)
    return series_coeffs(num, den, 200)[200].bit_length() / 200


# Every pool holds one command for each degree, format and growth band, so
# two seeds differ in their pairs but not in how much output they print.
_EXPAND_DEGREES = (1000, 1500, 2000, 2500, 3000)
_EXPAND_FORMATS = ("plain", "json", "csv")
_GROWTH_BANDS = ((0.75, 0.85), (0.95, 1.05), (1.15, 1.25))


def expand_long(rng: random.Random, tiny: bool) -> Workload:
    degrees = (40, 60) if tiny else _EXPAND_DEGREES
    commands = []
    for degree_slot in degrees:
        for fmt in _EXPAND_FORMATS:
            for low, high in _GROWTH_BANDS * (1 if tiny else 2):
                while True:
                    a, y = _draw_pair(rng, lambda r: (_expand_space(r), _expand_space(r)))
                    if low <= _growth_bits(a, y) < high:
                        break
                degree = degree_slot + rng.randint(-degree_slot // 20, degree_slot // 20)
                argv = ["compute", "--A", a.text, "--Y", y.text, "--degree", str(degree), "--format", fmt]
                commands.append(Command(argv, "compute", a, y, degree, fmt))
    rng.shuffle(commands)
    return Workload(commands)


# --- catalog-normalize -------------------------------------------------------

# Every catalog denominator is (1 - c1 t^a1)(1 - c2 t^a2)(1 - c3 t^a3) with
# a1 + a2 + a3 = 8 and {c1, c2, c3} = {2, 3, 5}, and no command names a
# series twice, so all commands of one size reduce polynomials of the same
# degree and leading coefficient.  Factors repeat between series, so some
# gcds are nontrivial.
_CATALOG_DEGREE = 8
_MULTIPLIERS = (2, 3, 5)
_SIZES = (2, 3, 4, 5, 6)


def _catalog(rng: random.Random, size: int, degree: int) -> list[Space]:
    out = []
    for i in range(size):
        first = rng.randint(1, degree - 2)
        second = rng.randint(1, degree - first - 1)
        exponents = (first, second, degree - first - second)
        den: Poly = ONE
        for a, c in zip(exponents, rng.sample(_MULTIPLIERS, 3)):
            den = pmul(den, (1,) + (0,) * (a - 1) + (-c,))
        num = (0,) + tuple(rng.randint(0, 3) for _ in range(degree - 1))
        if not any(num):
            num = T
        out.append(Space(f"c{i}", num, den, diagonal_null=i % 3 != 0))
    return out


def catalog_normalize(rng: random.Random, tiny: bool) -> Workload:
    entries = _catalog(rng, 6 if tiny else 24, 3 if tiny else _CATALOG_DEGREE)
    sizes = (2, 3) if tiny else _SIZES

    def draw(r, size):
        picked = r.sample(entries, size)
        return _chain(r, picked[: size // 2]), _chain(r, picked[size // 2:])

    commands = []
    for size in sizes * (1 if tiny else 24):
        for kind in ("compute", "collapse"):
            a, y = _draw_pair(rng, lambda r: draw(r, size))
            pair_argv = ["--A", a.text, "--Y", y.text, "--catalog", CATALOG_PLACEHOLDER]
            if kind == "compute":
                commands.append(Command(["compute", "--degree", "20", *pair_argv], kind, a, y, 20))
            else:
                commands.append(Command(["collapse", "--mono", *pair_argv], kind, a, y))
    rng.shuffle(commands)
    catalog = [
        {"name": e.text, "numerator": list(e.num), "denominator": list(e.den),
         "diagonal_null": e.diagonal_null}
        for e in entries
    ]
    return Workload(commands, catalog)


# --- oracle-verify -----------------------------------------------------------

# Every ambient space contains RP^inf, so has a class in every degree: the
# oracle's cost then depends on the degree, hardly on the rest of the pair.
_ORACLE_DEGREES = (10, 11, 12, 13, 14, 15, 16)


def _oracle_sub(rng: random.Random) -> Space:
    atoms = [sphere(1), sphere(2), sphere(3), projective(1), projective(2), POINT]
    return _chain(rng, [rng.choice(atoms) for _ in range(rng.randint(1, 2))])


def _oracle_ambient(rng: random.Random) -> Space:
    extra = rng.choice([None, sphere(1), sphere(2), sphere(3), projective(2), projective(3)])
    if extra is None:
        return projective(None)
    return wedge(projective(None), extra) if rng.random() < 0.5 else wedge(extra, projective(None))


def oracle_verify(rng: random.Random, tiny: bool) -> Workload:
    degrees = (5, 6) if tiny else _ORACLE_DEGREES
    commands = []
    for degree in degrees * (1 if tiny else 4):
        a, y = _draw_pair(rng, lambda r: (_oracle_sub(r), _oracle_ambient(r)))
        argv = ["verify", "--A", a.text, "--Y", y.text, "--degree", str(degree)]
        commands.append(Command(argv, "verify", a, y, degree))
    rng.shuffle(commands)
    return Workload(commands)


GENERATORS = {
    "expand-long": expand_long,
    "catalog-normalize": catalog_normalize,
    "oracle-verify": oracle_verify,
}


def generate(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload's commands and catalog; the same seed gives the same ones."""
    return GENERATORS[name](random.Random(f"{name}/{seed}"), tiny)
