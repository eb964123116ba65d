"""Seeded `adic-kit run` scripts for the benchmark, with expected outcomes.

Each workload is a fixed skeleton of declarations and commands.  The seed
only changes what leaves the cost of a command alone: variable names,
isomorphism-preserving shifts `T -> T + a`, small coefficients inside a
family, and the command order.  So two seeds give different inputs of the
same size, and run-to-run spread measures the host, not the draw.

Every presentation comes from a family whose class is known by
construction, and its expected outcome is derived from a theorem, never
from today's report bytes:

* a rational localization, and a monic polynomial whose discriminant is a
  unit at the relevant primes, is etale;
* lifting route: Jacobian-etale => lifting `etale`, lisse (smooth) =>
  surjective, non-ramifie (unramified) => injective;
* `d o d = 0`, gluing on a genuine covering is exact, the Frobenius scaling
  law of Robba norms holds, and `d(primitive) = omega`.

Families without such a theorem (for example `T^2`) carry no outcome check;
their commands still count as failed when they error or when their report
bytes differ between runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from math import comb

ETALE = (("verdict", ("etale",)),)
SURJECTIVE = (("verdict", ("etale", "lisse")),)
INJECTIVE = (("verdict", ("etale", "non_ramifie")),)
EXACT_GLUING = (("result.covering", ("true",)), ("result.left", ("exact",)),
                ("result.middle", ("exact",)), ("result.right", ("exact",)))


@dataclass(frozen=True)
class Command:
    """One script command and the outcome the mathematics requires of it."""
    text: str
    checks: tuple = ()          # ((dotted report path, allowed values), ...)
    # the wrong outcome today's program is known to give instead, in the
    # form of `checks`; a report that fails `checks` in any other way fails
    known_defect: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    declarations: tuple
    commands: tuple

    def script(self) -> str:
        return "".join(f"{line};\n" for line in
                       self.declarations + tuple(c.text for c in self.commands))

    def setup_script(self) -> str:
        """The same script with its commands removed."""
        return "".join(f"{line};\n" for line in self.declarations)


# -- integer polynomials in one variable, coefficients low degree first ------

def shift(coeffs: list, a: int) -> list:
    """Coefficients of p(T + a)."""
    out = [0] * len(coeffs)
    for k, c in enumerate(coeffs):
        for j in range(k + 1):
            out[j] += c * comb(k, j) * a ** (k - j)
    return out


def render(coeffs: list, var: str) -> str:
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mono = "" if k == 0 else var if k == 1 else f"{var}^{k}"
        mag = abs(c)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(terms) if terms else "0"


def quadratic_disc(coeffs: list) -> int:
    c, b, _ = coeffs
    return b * b - 4 * c


# -- lifting: default corpora, crystalline PD search ---------------------------

def lifting(rng: random.Random) -> Workload:
    """`classify-lifting` in both modes over `default_corpus(2)` and
    `default_corpus(3)`.  Each command rebuilds the same corpus rings, and
    the crystalline commands enumerate nilpotent ideals and PD structures,
    which is where ring interning and a subgroup kernel would show."""
    var = rng.choice("TSW")
    idem = shift([0, -1, 1], rng.randint(2, 5))      # disc 1: etale everywhere
    nil = shift([0, 0, 1], rng.randint(2, 5))        # T^2: no theorem applies
    cyclo = shift([1, 1, 1], rng.randint(2, 5))      # disc -3: etale at 2 only
    unram = shift([0, -1, 1], rng.randint(2, 5))
    assert quadratic_disc(idem) == 1 and quadratic_disc(cyclo) == -3
    decls = (
        "ZB = Tate(ZZ, [])",
        f"I = Quot(ZB, [{var}], [{render(idem, var)}])",
        f"N = Quot(ZB, [{var}], [{render(nil, var)}])",
        f"Y = Quot(ZB, [{var}], [{render(cyclo, var)}])",
        f"F = Tate(ZZ, [{var}])",
        # closed immersions of an etale algebra: unramified, not flat
        f"U2 = Quot(ZB, [{var}], [{render(unram, var)}, 2])",
        f"U3 = Quot(ZB, [{var}], [{render(unram, var)}, 3])",
    )
    cmds = []
    for mode in ("dR", "crys"):
        cmds += [Command(f"classify-lifting I mode={mode} p=2", ETALE),
                 Command(f"classify-lifting N mode={mode} p=2"),
                 Command(f"classify-lifting Y mode={mode} p=2", ETALE),
                 Command(f"classify-lifting F mode={mode} p=2", SURJECTIVE),
                 Command(f"classify-lifting U2 mode={mode} p=2", INJECTIVE)]
    cmds += [Command("classify-lifting I mode=dR p=3", ETALE),
             Command("classify-lifting N mode=dR p=3"),
             Command("classify-lifting Y mode=dR p=3"),
             Command("classify-lifting F mode=dR p=3", SURJECTIVE),
             Command("classify-lifting U3 mode=dR p=3", INJECTIVE),
             # the single most expensive command: PD search on F_3[x]/(x^4)
             Command("classify-lifting I mode=crys p=3", ETALE)]
    rng.shuffle(cmds)
    return Workload("lifting", decls, tuple(cmds))


# -- jacobian: exact elimination over Qp(2, 8) ---------------------------------

def flip(coeffs: list, sign: int) -> list:
    """Coefficients of p(sign * T): an automorphism when sign is -1."""
    return [c * sign ** k for k, c in enumerate(coeffs)]


def _witt(rng: random.Random, op: str, p: int) -> Command:
    """W_2(F_p) is Z/p^2 via (a0, a1) -> a0^p + p*a1 (Teichmueller lift of
    a0 plus V of a1), which gives the expected coordinates independently."""
    a = (rng.randrange(p), rng.randrange(p))
    b = (rng.randrange(p), rng.randrange(p))
    mod = p * p

    def to_int(w):
        return (pow(w[0], p, mod) + p * w[1]) % mod

    n = (to_int(a) + to_int(b)) % mod if op == "add" else \
        (to_int(a) * to_int(b)) % mod
    c0 = n % p
    c1 = ((n - pow(c0, p, mod)) // p) % p
    return Command(f"witt {op} ({a[0]},{a[1]}) ({b[0]},{b[1]}) p={p}",
                   (("result.coords", ([str(c0), str(c1)],)),))


def jacobian(rng: random.Random) -> Workload:
    """`classify`, `drham top=3` and `glue-check` over Qp(2, 8) in one to
    three variables, with towers, localizations and Compose; no finite-ring
    search runs.  A light tail of witt, robba-norm, tilt and integrate keeps
    `wittrobba`, `padics` and `norms` measured.

    Exact rational elimination costs more on larger coefficients, so the
    seed draws only automorphic variants of fixed presentations (a sign
    flip of each variable) and the names of the adjoined variables."""
    u, v, w = rng.sample(("u", "v", "w", "r", "s"), 3)

    def quad(coeffs, var):
        # monic with an odd linear coefficient: the discriminant is a 2-adic unit
        assert coeffs[2] == 1 and quadratic_disc(coeffs) % 2 == 1
        return render(flip(coeffs, rng.choice((-1, 1))), var)

    slope = f"X {rng.choice('+-')} 3*Y"
    decls = (
        "Q = Qp(2, 8)",
        "A1 = Tate(Q, [T])",
        "A2 = Tate(Q, [X, Y])",
        "A3 = Tate(Q, [X, Y, Z])",
        f"B1 = Quot(A1, [{u}], [{quad([-1, 1, 1], u)}])",
        f"B2 = Quot(A2, [{u}, {v}], [{quad([1, 1, 1], u)}, "
        f"{quad([-1, 1, 1], v)}])",
        f"B3 = Quot(A3, [{u}], [{quad([1, 3, 1], u)}])",
        f"D2 = Quot(A2, [{u}], [{quad([1, 1, 1], u)}])",
        f"C1 = Quot(B1, [{w}], [{quad([1, 1, 1], w)}])",
        "M1 = Morph(A1, B1, [T])",
        f"M2 = Morph(B1, C1, [T, {u}])",
        "K = Compose(M1, M2)",
        f"L1 = Loc(A1, {render(flip([3, 1, 1], rng.choice((-1, 1))), 'T')}, 4)",
        f"L2 = Loc(A2, {slope}, 4)",
        # (2u - 1)^2 = 1 + 8T is a unit in Q_2<T>, so this is etale
        "KD = Quot(A1, [u], [u^2 - u - 2*T])",
        f"R = Quot(GF(2), [x], [x^{rng.randint(2, 4)}])",
    )
    drham = (("result.d_squared_zero", (True,)),)
    half = rng.choice(("1/2", "3/2", "1/4"))
    omega = render([rng.randint(-3, 3), rng.randint(-3, 3),
                    rng.choice((-1, 1))], "T")
    cmds = [
        Command("classify B1", ETALE), Command("classify B2", ETALE),
        Command("classify B3", ETALE), Command("classify C1", ETALE),
        Command("classify K", ETALE), Command("classify L1", ETALE),
        Command("classify L2", ETALE),
        # the Jacobian route tests units in the polynomial ring, not in the
        # Tate algebra, so it reports none with h0 nonzero
        Command("classify KD", ETALE, known_defect=(
            ("verdict", ("none",)), ("result.h0", ("nonzero",)))),
        Command("drham B1 top=3", drham), Command("drham C1 top=3", drham),
        Command("drham D2 top=3", drham), Command("drham L1 top=3", drham),
        # the heaviest elimination: two adjoined variables over Q_2<X, Y>
        Command("drham B2 top=3", drham),
        Command(f"glue-check A1 (T {rng.choice('+-')} 3) (2) D=6 N=6",
                EXACT_GLUING),
        Command(f"glue-check A2 ({slope}) (2) D=6 N=6", EXACT_GLUING),
        _witt(rng, "add", 2), _witt(rng, "mul", 3),
        Command(f"robba-norm (p^0*[tbar^({half})] + p^1*[tbar^"
                f"{rng.randint(1, 3)}]) r=1 p=2",
                (("result.phi_scaling_holds", (True,)),)),
        Command("tilt R", (("result.tilt_cardinality", (2,)),
                           ("result.idempotent", (True,)))),
        Command(f"integrate ({omega}) {rng.randint(0, 3)} p=2 N=8",
                (("result.d_primitive_equals_omega", (True,)),
                 ("result.vanishes_at_lower_point", (True,)))),
    ]
    rng.shuffle(cmds)
    return Workload("jacobian", decls, tuple(cmds))


# -- points: dR point enumeration over |R|^n candidates -----------------------

def _six_adic_etale(rng: random.Random, var: str) -> str:
    """X^2 + bX + 6k with b prime to 6: the discriminant b^2 - 24k is a unit
    at 2 and 3, and X = 0 is a root in every ring, so points exist."""
    return render([6 * rng.choice((-2, -1, 1, 2)), rng.choice((-5, -1, 1, 5)),
                   1], var)


def points(rng: random.Random) -> Workload:
    """`classify-lifting mode=dR` for two- and three-variable presentations
    over corpora of 16- to 81-element rings declared once.  Time goes to
    element arithmetic and `Poly.evaluate` over |R|^n candidates; there is no
    ideal lattice and no PD search, and every ring object is built once."""
    x, y, z = rng.sample(("X", "Y", "Z", "V"), 3)
    decls = (
        "ZB = Tate(ZZ, [])",
        "C16 = Corpus(Zmod(16), Quot(GF(2), [x], [x^4]))",
        "C81 = Corpus(Zmod(81), Quot(GF(3), [x], [x^4]), Zmod(27))",
        f"E2 = Quot(ZB, [{x}, {y}], [{_six_adic_etale(rng, x)}, "
        f"{_six_adic_etale(rng, y)}])",
        f"E3 = Quot(ZB, [{x}, {y}, {z}], [{_six_adic_etale(rng, x)}, "
        f"{_six_adic_etale(rng, y)}, {_six_adic_etale(rng, z)}])",
        # graphs of polynomial maps are smooth
        f"G2 = Quot(ZB, [{x}, {y}], [{y} - "
        f"({render([rng.choice((-3, -2, 2, 3)), rng.choice((-1, 1)), 1], x)})])",
        f"G3 = Quot(ZB, [{x}, {y}, {z}], [{z} - {x}*{y} - "
        f"({rng.choice((-3, -2, 2, 3))})])",
        # a closed immersion of an etale algebra, cut down to characteristic
        # 6: unramified, not flat
        f"U2 = Quot(ZB, [{x}, {y}], [{_six_adic_etale(rng, x)}, "
        f"{y} - {x} - {rng.randint(1, 3)}, 6])",
    )
    cmds = [Command("classify-lifting E2 corpus=C81 mode=dR", ETALE),
            Command("classify-lifting E3 corpus=C16 mode=dR", ETALE),
            Command("classify-lifting G2 corpus=C81 mode=dR", SURJECTIVE),
            Command("classify-lifting G3 corpus=C16 mode=dR", SURJECTIVE),
            Command("classify-lifting U2 corpus=C81 mode=dR", INJECTIVE)]
    rng.shuffle(cmds)
    return Workload("points", decls, tuple(cmds))


_MISSING = object()


def lookup(report: dict, path: str):
    node = report
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return _MISSING
        node = node[key]
    return node


def outcome_failure(command: Command, report: dict) -> str:
    """Why `report` is not an acceptable outcome of `command`; empty if it is."""
    word = command.text.split()[0]
    if not str(report.get("command", "")).startswith(word):
        return f"report is for {report.get('command')!r}, not {word}"
    if "error" in report:
        return f"error: {report['error']}"
    for path, allowed in command.checks:
        value = lookup(report, path)
        if value is _MISSING:
            return f"{path} missing"
        if value not in allowed:
            return f"{path} = {value!r}, expected one of {list(allowed)!r}"
    return ""


def is_known_defect(command: Command, report: dict) -> bool:
    """Whether `report` is exactly the known wrong outcome of `command`."""
    return bool(command.known_defect) and outcome_failure(
        replace(command, checks=command.known_defect), report) == ""


GENERATORS = {"lifting": lifting, "jacobian": jacobian, "points": points}


def generate(name: str, seed: int) -> Workload:
    return GENERATORS[name](random.Random(f"{name}:{seed}"))
