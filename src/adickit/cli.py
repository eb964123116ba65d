"""Presentation DSL and batch driver.

A script is a sequence of declarations and commands separated by semicolons:

    A = Tate(Qp(2,8), [T]; D=8);
    B = Quot(A, [u], [u - T^2]);
    classify B;
    glue-check A (T) (2) D=6;

Declarations build bases (Qp, ZZ), finite rings (Zmod, GF, Quot, Prod),
presentations (Tate, Quot, Loc), morphisms (Morph, Compose, BaseChange) and
corpora (Corpus).  Commands dispatch to the library and emit deterministic
JSON reports; a human summary goes to stderr.  Exit codes: 0 ok, 1 command
error, 2 parse error.  `Qp(p, N)`'s N, `N=` on any command, `D=` on
`classify` and `--precision` are accepted so old scripts run, and have no
effect: coefficients are exact rationals, and `classify` is exact in every
degree.

Every process entry (`python -m adickit`, `python -m adickit.cli` and the
`adic-kit` console script) goes through `run_process`; in-process callers
use `main`.
"""

from __future__ import annotations

import gc
import json
import sys
from fractions import Fraction

from . import VERSION
from .poly import Poly, monomials_upto, render_poly
from .tate import (IntegerBase, MorphismPresentation, PresentationError,
                   QpBase, RingPresentation, base_change,
                   compose_presentations, free_presentation, gauss_norm,
                   is_finite_base)

# Parsing and declarations of Q_p and Z presentations need only `tate`,
# `padics` and `poly`.  A `Zmod`, `GF`, `Prod` or ring-spec `Quot`
# declaration imports `finiterings`, a `Loc` declaration `localization`, and
# `tate` imports `groebner` for its first Groebner basis.  Each command
# handler imports the library it drives when it first runs, and
# `tate.gauss_norm` imports `norms` on its first call, so a script pays to
# load (and, without bytecode, to compile) only the modules it uses.

COMMANDS = ("classify", "classify-lifting", "glue-check", "drham", "witt",
            "robba-norm", "tilt", "integrate")
# constructor -> (fewest, most) positional arguments, None for no limit;
# `Qp(p, N)`'s N and `GF(p, k)`'s k may be left out
CONSTRUCTORS = {"Qp": (1, 2), "Zmod": (1, 1), "GF": (1, 2), "Prod": (2, 2),
                "Tate": (2, 2), "Quot": (3, 3), "Loc": (3, 3),
                "Morph": (3, 3), "Compose": (2, 2), "BaseChange": (2, 2),
                "Corpus": (0, None)}

class ScriptError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at {line}:{col}")
        self.message = message
        self.line = line
        self.col = col


# -- tokens ---------------------------------------------------------------------

class _Record:
    """A value record: compared, hashed and printed as
    `Kind(slot=value, ...)` from its slots."""
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self.__slots__)
        return f"{type(self).__name__}({body})"


class Token(_Record):
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind            # IDENT NUM OP EOF
        self.text = text
        self.line = line
        self.col = col


_PUNCT = set("()[]{},;=+-*/^")


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(Token("NUM", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(Token("OP", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ScriptError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


# -- AST --------------------------------------------------------------------------


class Num(_Record):
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


class Name(_Record):
    __slots__ = ("ident", "line", "col")

    def __init__(self, ident: str, line: int = 0, col: int = 0):
        self.ident = ident
        self.line = line
        self.col = col


class BinOp(_Record):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left, right):
        self.op = op
        self.left = left
        self.right = right


class Neg(_Record):
    __slots__ = ("operand",)

    def __init__(self, operand):
        self.operand = operand


class Pow(_Record):
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        self.base = base
        self.exponent = exponent


class ListExpr(_Record):
    __slots__ = ("items",)

    def __init__(self, items: tuple):
        self.items = items


class TupleExpr(_Record):
    __slots__ = ("items",)

    def __init__(self, items: tuple):
        self.items = items


class Call(_Record):
    __slots__ = ("func", "args", "kwargs")

    def __init__(self, func: str, args: tuple, kwargs: tuple):
        self.func = func
        self.args = args
        self.kwargs = kwargs        # ((key, expr), ...)


class Declaration(_Record):
    __slots__ = ("name", "expr", "line", "col")

    def __init__(self, name: str, expr, line: int, col: int):
        self.name = name
        self.expr = expr
        self.line = line
        self.col = col


class CommandStmt(_Record):
    __slots__ = ("command", "args", "kwargs", "line", "col")

    def __init__(self, command: str, args: tuple, kwargs: tuple, line: int,
                 col: int):
        self.command = command
        self.args = args
        self.kwargs = kwargs
        self.line = line
        self.col = col


class SessionScript(_Record):
    __slots__ = ("items",)

    def __init__(self, items: tuple):
        self.items = items


class Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ScriptError(f"expected {want!r}, found {tok.text!r}",
                              tok.line, tok.col)
        return self.next()

    def at_op(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.text == text

    # -- statements ----------------------------------------------------------

    def parse_script(self) -> SessionScript:
        items = []
        while self.peek().kind != "EOF":
            items.append(self.statement())
            if self.at_op(";"):
                self.next()
            elif self.peek().kind != "EOF":
                tok, last = self.peek(), self.tokens[self.pos - 1]
                if tok.text == "(" and last.kind == "IDENT":
                    raise ScriptError(f"unknown constructor {last.text}",
                                      last.line, last.col)
                raise ScriptError("expected ';'", tok.line, tok.col)
        return SessionScript(tuple(items))

    def statement(self):
        tok = self.peek()
        if tok.kind != "IDENT":
            raise ScriptError(f"expected a statement, found {tok.text!r}",
                              tok.line, tok.col)
        # hyphenated command names
        name = tok.text
        if self.tokens[self.pos + 1].kind == "OP" and \
                self.tokens[self.pos + 1].text == "-" and \
                self.tokens[self.pos + 2].kind == "IDENT":
            merged = f"{name}-{self.tokens[self.pos + 2].text}"
            if merged in COMMANDS:
                self.pos += 3
                return self.command(merged, tok)
        if name in COMMANDS:
            self.next()
            return self.command(name, tok)
        self.next()
        self.expect("OP", "=")
        expr = self.expression()
        return Declaration(name, expr, tok.line, tok.col)

    def command(self, name: str, tok: Token) -> CommandStmt:
        args = []
        kwargs = []
        while not self.at_op(";") and self.peek().kind != "EOF":
            if self.peek().kind == "IDENT" and \
                    self.tokens[self.pos + 1].kind == "OP" and \
                    self.tokens[self.pos + 1].text == "=":
                key = self.next().text
                self.next()
                kwargs.append((key, self.expression()))
            else:
                args.append(self.expression())
        return CommandStmt(name, tuple(args), tuple(kwargs), tok.line,
                           tok.col)

    # -- expressions -----------------------------------------------------------

    def expression(self):
        node = self.term()
        while self.at_op("+") or self.at_op("-"):
            op = self.next().text
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.at_op("*") or self.at_op("/"):
            op = self.next().text
            node = BinOp(op, node, self.factor())
        return node

    def factor(self):
        if self.at_op("-"):
            self.next()
            return Neg(self.factor())
        if self.at_op("+"):
            self.next()
            return self.factor()
        node = self.atom()
        if self.at_op("^"):
            self.next()
            node = Pow(node, self.factor())
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "NUM":
            self.next()
            return Num(int(tok.text))
        if tok.kind == "IDENT":
            self.next()
            # only a constructor's name binds the parenthesis after it: in
            # `glue-check A (T) (2)` or `2*T (1)` the name ends the expression
            if tok.text in CONSTRUCTORS and self.at_op("("):
                return self.call(tok)
            return Name(tok.text, tok.line, tok.col)
        if self.at_op("("):
            self.next()
            items = [self.expression()]
            while self.at_op(","):
                self.next()
                items.append(self.expression())
            self.expect("OP", ")")
            if len(items) == 1:
                return items[0]
            return TupleExpr(tuple(items))
        if self.at_op("["):
            self.next()
            items = []
            if not self.at_op("]"):
                items.append(self.expression())
                while self.at_op(","):
                    self.next()
                    items.append(self.expression())
            self.expect("OP", "]")
            return ListExpr(tuple(items))
        raise ScriptError(f"unexpected token {tok.text!r}", tok.line, tok.col)

    def call(self, name: Token) -> Call:
        self.expect("OP", "(")
        args = []
        kwargs = []
        while not self.at_op(")"):
            if self.peek().kind == "IDENT" and \
                    self.tokens[self.pos + 1].kind == "OP" and \
                    self.tokens[self.pos + 1].text == "=":
                key = self.next().text
                self.next()
                kwargs.append((key, self.expression()))
            else:
                if self.at_op("["):
                    args.append(self.atom())
                else:
                    args.append(self.expression())
            if self.at_op(",") or self.at_op(";"):
                self.next()
        self.expect("OP", ")")
        fewest, most = CONSTRUCTORS[name.text]
        if len(args) < fewest or (most is not None and len(args) > most):
            takes = f"{fewest}" if fewest == most else f"{fewest} or {most}"
            plural = "" if most == 1 else "s"
            raise ScriptError(f"{name.text} takes {takes} argument{plural}, "
                              f"got {len(args)}", name.line, name.col)
        return Call(name.text, tuple(args), tuple(kwargs))


def parse_script(text: str) -> SessionScript:
    return Parser(tokenize(text)).parse_script()


# -- printer (command echoes) -----------------------------------------------------

def print_expr(node) -> str:
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, Neg):
        return f"-{print_expr(node.operand)}"
    if isinstance(node, BinOp):
        return f"({print_expr(node.left)} {node.op} {print_expr(node.right)})"
    if isinstance(node, Pow):
        return f"{print_expr(node.base)}^{print_expr(node.exponent)}"
    if isinstance(node, ListExpr):
        return "[" + ", ".join(print_expr(i) for i in node.items) + "]"
    if isinstance(node, TupleExpr):
        return "(" + ", ".join(print_expr(i) for i in node.items) + ")"
    if isinstance(node, Call):
        parts = [print_expr(a) for a in node.args]
        parts += [f"{k}={print_expr(v)}" for k, v in node.kwargs]
        return f"{node.func}({', '.join(parts)})"
    raise TypeError(f"cannot print {node!r}")


# -- evaluation --------------------------------------------------------------------

class Options:
    __slots__ = ("degree", "prime", "strict", "corpus")

    def __init__(self, degree: int = 8, prime: int = 2, strict: bool = False,
                 corpus: list | None = None):
        self.degree = degree
        self.prime = prime
        self.strict = strict
        self.corpus = corpus


class Session:
    def __init__(self, options: Options):
        self.options = options
        self.env: dict = {}

    # -- helpers ---------------------------------------------------------------

    def lookup(self, name: str, line: int, col: int):
        if name not in self.env:
            raise ScriptError(f"undefined name {name}", line, col)
        return self.env[name]

    def eval_const(self, node, line, col) -> Fraction:
        if isinstance(node, Num):
            return Fraction(node.value)
        if isinstance(node, Neg):
            return -self.eval_const(node.operand, line, col)
        if isinstance(node, BinOp):
            left = self.eval_const(node.left, line, col)
            right = self.eval_const(node.right, line, col)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if node.op == "/":
                return left / right
        if isinstance(node, Pow):
            base = self.eval_const(node.base, line, col)
            return base ** self._integer(node.exponent, line, col)
        raise ScriptError("expected a constant", line, col)

    def _integer(self, node, line, col, what: str = "exponent") -> int:
        value = self.eval_const(node, line, col)
        if value.denominator != 1:
            raise ScriptError(f"{what} {value} is not an integer", line, col)
        return value.numerator

    def eval_poly(self, node, pres: RingPresentation, line, col) -> Poly:
        if isinstance(node, Num):
            return pres.const(node.value)
        if isinstance(node, Name):
            if node.ident in pres.varnames:
                return pres.var(node.ident)
            raise ScriptError(f"undefined name {node.ident}",
                              node.line or line, node.col or col)
        if isinstance(node, Neg):
            return -self.eval_poly(node.operand, pres, line, col)
        if isinstance(node, BinOp):
            if node.op == "/":
                num = self.eval_poly(node.left, pres, line, col)
                den = self.eval_const(node.right, line, col)
                if den == 0:
                    raise ScriptError("division by zero", line, col)
                if is_finite_base(pres.base):
                    if den.denominator != 1:
                        raise ScriptError("fractional constant over a finite "
                                          "base", line, col)
                    return num.scale(pres.base.from_int(den.numerator).inverse())
                return num.scale(Fraction(1) / den)
            left = self.eval_poly(node.left, pres, line, col)
            right = self.eval_poly(node.right, pres, line, col)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
        if isinstance(node, Pow):
            base = self.eval_poly(node.base, pres, line, col)
            exp = self._integer(node.exponent, line, col)
            if exp == 0:
                return pres.const(1)
            return base ** exp
        raise ScriptError("cannot interpret polynomial expression", line, col)

    def eval_ring_element(self, node, ring, line, col):
        """Small evaluator for finite-ring element literals (ints and the
        canonical generator name x)."""
        if isinstance(node, Num):
            return ring.from_int(node.value)
        if isinstance(node, Name):
            if node.ident == "x" and len(ring.moduli) > 1:
                coords = tuple(1 if i == 1 else 0
                               for i in range(len(ring.moduli)))
                return ring.element(coords)
            raise ScriptError(f"unknown ring element {node.ident}", line, col)
        if isinstance(node, Neg):
            return -self.eval_ring_element(node.operand, ring, line, col)
        if isinstance(node, BinOp):
            left = self.eval_ring_element(node.left, ring, line, col)
            right = self.eval_ring_element(node.right, ring, line, col)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
        if isinstance(node, Pow):
            base = self.eval_ring_element(node.base, ring, line, col)
            return base ** self._integer(node.exponent, line, col)
        raise ScriptError("cannot interpret ring element", line, col)

    def eval_robba(self, node, ring: CharPNormedRing, line, col) -> RobbaElement:
        """p^k*[digit] sums."""
        from .wittrobba import RobbaElement
        terms: dict = {}

        def digit(expr) -> "NormedElement":
            return self._eval_normed(expr, ring, line, col)

        def as_digit_bracket(expr):
            if isinstance(expr, ListExpr) and len(expr.items) == 1:
                return expr.items[0]
            return None

        def walk(expr):
            if isinstance(expr, BinOp) and expr.op == "+":
                walk(expr.left)
                walk(expr.right)
                return
            if isinstance(expr, BinOp) and expr.op == "*":
                # p^k * [..]
                k = _power_index(expr.left, line, col)
                inner = as_digit_bracket(expr.right)
                if inner is None:
                    raise ScriptError("expected [digit] after p^k*", line, col)
                terms[k] = terms.get(k, ring.zero) + digit(inner)
                return
            inner = as_digit_bracket(expr)
            if inner is not None:
                terms[0] = terms.get(0, ring.zero) + digit(inner)
                return
            raise ScriptError("cannot interpret expansion term", line, col)

        walk(node)
        if not terms:
            return RobbaElement(ring, (ring.zero,))
        length = max(terms) + 1
        digits = tuple(terms.get(k, ring.zero) for k in range(length))
        return RobbaElement(ring, digits)

    def _eval_normed(self, node, ring: CharPNormedRing, line, col):
        if isinstance(node, Num):
            return ring.from_int(node.value)
        if isinstance(node, Name):
            if node.ident == "tbar":
                return ring.tbar()
            raise ScriptError(f"unknown residue symbol {node.ident}", line, col)
        if isinstance(node, Neg):
            return -self._eval_normed(node.operand, ring, line, col)
        if isinstance(node, Pow):
            if isinstance(node.base, Name) and node.base.ident == "tbar":
                return ring.tbar(self.eval_const(node.exponent, line, col))
            raise ScriptError("only tbar admits exponents here", line, col)
        if isinstance(node, BinOp):
            left = self._eval_normed(node.left, ring, line, col)
            right = self._eval_normed(node.right, ring, line, col)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
        raise ScriptError("cannot interpret residue expression", line, col)

    # -- declarations ------------------------------------------------------------

    def declare(self, decl: Declaration):
        self.env[decl.name] = self.eval_decl_expr(decl.expr, decl.line, decl.col)

    def eval_decl_expr(self, node, line, col):
        if isinstance(node, Name):
            if node.ident == "ZZ":
                return IntegerBase()
            return self.lookup(node.ident, node.line or line, node.col or col)
        if not isinstance(node, Call):
            raise ScriptError("expected a constructor call", line, col)
        fn = node.func
        if fn in ("Qp", "Zmod", "GF"):
            args = [self._integer(a, line, col, f"{fn} argument")
                    for a in node.args]
            if fn == "Zmod":
                from .finiterings import zmod
                return zmod(args[0])
            if fn == "GF":
                from .finiterings import gf
                return gf(*args)
            return QpBase(args[0])      # a precision argument is inert
        if fn == "Prod":
            a = self.eval_decl_expr(node.args[0], line, col)
            b = self.eval_decl_expr(node.args[1], line, col)
            from .finiterings import product_ring
            return product_ring(a, b)
        if fn == "Tate":
            base = self.eval_decl_expr(node.args[0], line, col)
            varnames = _name_list(node.args[1], line, col)
            cap = self.options.degree
            for key, val in node.kwargs:
                if key == "D":
                    cap = self._integer(val, line, col, "D value")
            return free_presentation(base, tuple(varnames), degree_cap=cap)
        if fn == "Quot":
            head = self.eval_decl_expr(node.args[0], line, col)
            varnames = _name_list(node.args[1], line, col)
            if isinstance(head, RingPresentation):
                extended = head.extend(tuple(varnames), [])
                rels = [self.eval_poly(e, extended, line, col)
                        for e in node.args[2].items]
                return head.extend(tuple(varnames), rels)
            if is_finite_base(head):
                # ring-spec quotient: F_p[x..]/(relations)
                if len(head.moduli) != 1 or not head.is_field:
                    raise ScriptError(
                        "ring-spec Quot needs a prime-field base", line, col)
                p = head.moduli[0]
                scratch = free_presentation(head, tuple(varnames))
                rels = [self.eval_poly(e, scratch, line, col)
                        for e in node.args[2].items]
                from .finiterings import fp_quotient
                return fp_quotient(p, tuple(varnames), rels)
            raise ScriptError("Quot expects a ring or presentation", line, col)
        if fn == "Loc":
            pres = self.eval_decl_expr(node.args[0], line, col)
            f = self.eval_poly(node.args[1], pres, line, col)
            g = self.eval_poly(node.args[2], pres, line, col)
            from .localization import rational_localization
            loc, _ = rational_localization(pres, f, g)
            return loc
        if fn == "Morph":
            src = self.eval_decl_expr(node.args[0], line, col)
            tgt = self.eval_decl_expr(node.args[1], line, col)
            images = [self.eval_poly(e, tgt, line, col)
                      for e in node.args[2].items]
            try:
                return MorphismPresentation(src, tgt, images)
            except PresentationError as exc:
                raise ScriptError(str(exc), line, col)
        if fn == "Compose":
            f = self.eval_decl_expr(node.args[0], line, col)
            g = self.eval_decl_expr(node.args[1], line, col)
            return compose_presentations(f, g)
        if fn == "BaseChange":
            pres = self.eval_decl_expr(node.args[0], line, col)
            phi = self.eval_decl_expr(node.args[1], line, col)
            return base_change(pres, phi)
        if fn == "Corpus":
            return [self.eval_decl_expr(a, line, col) for a in node.args]
        raise ScriptError(f"unknown constructor {fn}", line, col)

    # -- commands ------------------------------------------------------------------

    def run_command(self, cmd: CommandStmt) -> dict:
        handler = getattr(self, "_cmd_" + cmd.command.replace("-", "_"))
        result, verdict = handler(cmd)
        echo_parts = [print_expr(a) for a in cmd.args]
        echo_parts += [f"{k}={print_expr(v)}" for k, v in cmd.kwargs]
        return {
            "command": f"{cmd.command} {' '.join(echo_parts)}".strip(),
            "params": {"degree_cap": self.options.degree,
                       "prime": self.options.prime},
            "result": result,
            "verdict": verdict,
            "version": VERSION,
        }

    def _kwargs(self, cmd: CommandStmt) -> dict:
        return dict(cmd.kwargs)

    def _int_kw(self, cmd, key, default):
        kw = self._kwargs(cmd)
        if key in kw:
            return self._integer(kw[key], cmd.line, cmd.col, f"{key} value")
        return default

    def _cmd_classify(self, cmd: CommandStmt):
        from .differentials import classify_morphism
        obj = self.eval_decl_expr(cmd.args[0], cmd.line, cmd.col)
        # classify is exact in every degree: `D=` bounds nothing, but a
        # negative value is still refused, as in `Tate(...; D=)`
        cap = self._int_kw(cmd, "D", self.options.degree)
        if cap < 0:
            raise PresentationError(f"negative degree cap {cap}")
        verdict = classify_morphism(obj)
        result = verdict.to_json()
        pres = obj.target if isinstance(obj, MorphismPresentation) else obj
        if isinstance(pres.base, QpBase):
            result["generator_gauss_norms"] = [
                str(gauss_norm(g, pres.base.p)) for g in pres.gens]
        return result, verdict.verdict

    def _cmd_classify_lifting(self, cmd: CommandStmt):
        from .infinitesimal import classify_lifting, default_corpus
        obj = self.eval_decl_expr(cmd.args[0], cmd.line, cmd.col)
        kw = self._kwargs(cmd)
        mode = "dR"
        if "mode" in kw:
            if not isinstance(kw["mode"], Name) or \
                    kw["mode"].ident not in ("dR", "crys"):
                raise ScriptError("mode must be dR or crys", cmd.line, cmd.col)
            mode = kw["mode"].ident
        if "corpus" in kw:
            corpus = self.eval_decl_expr(kw["corpus"], cmd.line, cmd.col)
            if not isinstance(corpus, list) or \
                    not all(hasattr(r, "cardinality") for r in corpus):
                raise ScriptError("corpus must be a Corpus(...) of finite "
                                  "rings", cmd.line, cmd.col)
        elif self.options.corpus is not None:
            corpus = self.options.corpus
        else:
            corpus = default_corpus(self._int_kw(cmd, "p", self.options.prime))
        verdict = classify_lifting(obj, corpus, mode, skip_inadmissible=True)
        return verdict.to_json(), verdict.verdict

    def _cmd_glue_check(self, cmd: CommandStmt):
        from .localization import (binary_covering, gluing_sequence_check,
                                   joint_surjection_lift)
        pres = self.eval_decl_expr(cmd.args[0], cmd.line, cmd.col)
        f = self.eval_poly(cmd.args[1], pres, cmd.line, cmd.col)
        g = self.eval_poly(cmd.args[2], pres, cmd.line, cmd.col)
        cap = self._int_kw(cmd, "D", min(self.options.degree, 6))
        cov = binary_covering(pres, f, g)
        if cov.certificate.status != "true":
            raise ScriptError(
                f"(f, g) is not a certified covering: {cov.certificate.status}",
                cmd.line, cmd.col)
        result = {"covering": cov.certificate.status}
        report = gluing_sequence_check(cov)
        result.update(report.to_json())
        kw = self._kwargs(cmd)
        over = None
        if "over" in kw:
            over = self.eval_decl_expr(kw["over"], cmd.line, cmd.col)
        if over is not None:
            extra = [pres.var(v) for v in pres.varnames[over.nvars:]]
            s1 = [e.extend_vars(cov.loc_fg.nvars) for e in extra]
            s2 = [e.extend_vars(cov.loc_gf.nvars) for e in extra]
            lift = joint_surjection_lift(cov, s1, s2, over=over,
                                         degree_cap=cap)
        else:
            lift = joint_surjection_lift(cov, [], [], over=pres,
                                         degree_cap=cap)
        result["joint_lift"] = {
            "status": lift.status,
            "generators": [render_poly(b, pres.varnames)
                           for b in lift.generators],
            "count": lift.count,
        }
        summary = "exact" if report.all_exact() else "not all exact"
        return result, summary

    def _cmd_drham(self, cmd: CommandStmt):
        from .differentials import de_rham_complex
        obj = self.eval_decl_expr(cmd.args[0], cmd.line, cmd.col)
        top = self._int_kw(cmd, "top", 2)
        cx = de_rham_complex(obj, top)
        pres = cx.data.pres
        # d o d = 0 on the tracked generators at the cap
        square_zero = True
        if pres.has_field_coefficients():
            mono_cap = 2
            for k in range(0, top - 1):
                for subset in cx.generators[k]:
                    for m in monomials_upto(pres.nvars, mono_cap):
                        form = {subset: Poly(pres.nvars,
                                             {m: pres.coeff_one()},
                                             normalize=False)}
                        dd = cx.form_d(cx.form_d(form))
                        if dd and not cx.is_zero_form(dd):
                            square_zero = False
        result = {
            "top_degree": top,
            "truncated_ranks": {str(k): cx.truncated_ranks[k]
                                for k in sorted(cx.truncated_ranks)},
            "d_squared_zero": square_zero,
        }
        return result, "d^2=0" if square_zero else "d^2 != 0"

    def _cmd_witt(self, cmd: CommandStmt):
        from .finiterings import gf
        from .wittrobba import (WittVector, frobenius_witt, teichmuller,
                                verschiebung, witt_arith)
        head = cmd.args[0]
        if not isinstance(head, Name):
            raise ScriptError("expected a witt operation name", cmd.line,
                              cmd.col)
        opname = head.ident
        vector_args = cmd.args[1:]
        kw = self._kwargs(cmd)
        p = self._int_kw(cmd, "p", self.options.prime)
        ring = self.eval_decl_expr(kw["over"], cmd.line, cmd.col) \
            if "over" in kw else gf(p, 1)
        vectors = []
        for arg in vector_args:
            items = arg.items if isinstance(arg, TupleExpr) else (arg,)
            coords = [self.eval_ring_element(e, ring, cmd.line, cmd.col)
                      for e in items]
            vectors.append(WittVector(p, tuple(coords), ring))
        if opname in ("add", "mul", "sub"):
            out = witt_arith(opname, vectors[0], vectors[1])
        elif opname == "frobenius":
            out = frobenius_witt(vectors[0])
        elif opname == "verschiebung":
            out = verschiebung(vectors[0])
        elif opname == "teichmuller":
            out = teichmuller(vectors[0].coords[0], vectors[0].length)
        else:
            raise ScriptError(f"unknown witt operation {opname}",
                              cmd.line, cmd.col)
        result = {"op": opname, "p": p, "ring": ring.name,
                  "coords": [repr(c) for c in out.coords]}
        return result, repr(out)

    def _cmd_robba_norm(self, cmd: CommandStmt):
        from .wittrobba import (CharPNormedRing, interval_norm, phi_action,
                                robba_norm)
        p = self._int_kw(cmd, "p", self.options.prime)
        ring = CharPNormedRing(p)
        elem = self.eval_robba(cmd.args[0], ring, cmd.line, cmd.col)
        kw = self._kwargs(cmd)
        r = Fraction(self.eval_const(kw["r"], cmd.line, cmd.col)) \
            if "r" in kw else Fraction(1)
        result = {"p": p, "element": repr(elem)}
        if "s" in kw:
            s = Fraction(self.eval_const(kw["s"], cmd.line, cmd.col))
            value = interval_norm(elem, s, r)
            result["interval"] = [str(s), str(r)]
        else:
            value = robba_norm(elem, r)
            result["r"] = str(r)
        result["norm"] = str(value)
        scaled = robba_norm(phi_action(elem), r)
        result["phi_scaling_holds"] = (scaled == robba_norm(elem, p * r))
        return result, str(value)

    def _cmd_tilt(self, cmd: CommandStmt):
        from .wittrobba import tilt
        ring = self.eval_decl_expr(cmd.args[0], cmd.line, cmd.col)
        res = tilt(ring, self._int_kw(cmd, "depth", None))
        again = tilt(res.ring)
        result = {
            "ring": ring.name,
            "tilt_cardinality": res.ring.cardinality,
            "depth": res.depth,
            "elements": [repr(x) for x in sorted(
                map(res.embed, res.ring.elements()), key=lambda x: x.key())],
            "idempotent": again.ring.cardinality == res.ring.cardinality,
        }
        return result, f"{res.ring.cardinality} elements"

    def _cmd_integrate(self, cmd: CommandStmt):
        from .differentials import etale_integration
        p = self._int_kw(cmd, "p", self.options.prime)
        scratch = free_presentation(QpBase(p), ("T",))
        omega = self.eval_poly(cmd.args[0], scratch, cmd.line, cmd.col)
        f = self.eval_const(cmd.args[1], cmd.line, cmd.col)
        res = etale_integration(omega, f, prime=p)
        h = res.primitive
        dh = h.derivative(0)
        t_minus_f = Poly(1, {(1,): Fraction(1), (0,): -Fraction(f)})
        from .groebner import normal_form as nf
        divisible = nf(h, [t_minus_f]).is_zero
        result = {
            "primitive": render_poly(h, ("T",)),
            "d_primitive_equals_omega": dh == omega,
            "vanishes_at_lower_point": not h.evaluate(
                [Fraction(f)], lambda c: c, Fraction(0)),
            "in_ideal_T_minus_f": divisible,
            "gauss_norm": str(gauss_norm(h, p)),
            "flags": sorted(res.flags),
        }
        return result, render_poly(h, ("T",))


# -- the driver ---------------------------------------------------------------------

class RunOutcome:
    __slots__ = ("reports", "exit_code")

    def __init__(self, reports: list, exit_code: int):
        self.reports = reports
        self.exit_code = exit_code


def _execute_command(session: Session, item: CommandStmt) -> dict:
    try:
        report = session.run_command(item)
        if session.options.strict and _has_inconclusive(report):
            report["strict_failure"] = "inconclusive verdict under --strict"
        return report
    except ScriptError as exc:
        return {"command": item.command, "error": str(exc), "version": VERSION}
    except Exception as exc:  # the driver reports, it never tracebacks
        return {"command": item.command,
                "error": f"{type(exc).__name__}: {exc} at "
                         f"{item.line}:{item.col}",
                "version": VERSION}


def run_script(script: SessionScript, options: Options | None = None) -> RunOutcome:
    """Declarations and commands run in script order, so a command sees
    only the names declared before it."""
    options = options or Options()
    session = Session(options)
    reports: list = []
    for item in script.items:
        if isinstance(item, Declaration):
            try:
                session.declare(item)
            except ScriptError as exc:
                reports.append({"command": f"declaration {item.name}",
                                "error": str(exc), "version": VERSION})
            except Exception as exc:
                reports.append({"command": f"declaration {item.name}",
                                "error": f"{exc} at {item.line}:{item.col}",
                                "version": VERSION})
            continue
        reports.append(_execute_command(session, item))

    exit_code = 0
    for rep in reports:
        if "error" in rep or "strict_failure" in rep:
            exit_code = 1
    return RunOutcome(reports, exit_code)


def _has_inconclusive(obj) -> bool:
    if isinstance(obj, dict):
        return any(_has_inconclusive(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_has_inconclusive(v) for v in obj)
    return obj == "inconclusive"


def render_reports(reports: list) -> str:
    return json.dumps(reports, indent=2, sort_keys=False) + "\n"


# -- the command line ----------------------------------------------------------------
# `adic-kit run SCRIPT [options]`, read as argparse read it: the same help
# and usage texts (laid out for 80 columns), `--opt value`, `--opt=value`,
# unique prefixes of long options, `--` before positional arguments, and the
# same error messages, with exit code 2 after an error and 0 after help.

_USAGE = "usage: adic-kit [-h] {run} ...\n"
_RUN_USAGE = """\
usage: adic-kit run [-h] [--degree DEGREE] [--precision PRECISION]
                    [--prime PRIME] [--corpus CORPUS] [--strict] [--out OUT]
                    script
"""
# (prog, usage, help) of the top-level parser and of `run`
_TOP = ("adic-kit", _USAGE, _USAGE + """
positional arguments:
  {run}
    run       run a script

options:
  -h, --help  show this help message and exit
""")
_RUN = ("adic-kit run", _RUN_USAGE, _RUN_USAGE + """
positional arguments:
  script

options:
  -h, --help            show this help message and exit
  --degree DEGREE
  --precision PRECISION
                        no effect: coefficients are exact rationals
  --prime PRIME
  --corpus CORPUS       comma-separated ring specs, e.g. 'Zmod(4),GF(2)'
  --strict
  --out OUT
""")
# run's options and their defaults: `--strict` is a flag, `--corpus` and
# `--out` take a string, the others an int
_RUN_DEFAULTS = {"--degree": 8, "--precision": 8, "--prime": 2,
                 "--corpus": None, "--strict": False, "--out": None}


class _Exit(Exception):
    """The command line ends the run: `text` goes to stdout after help
    (code 0), to stderr after an error (code 2)."""

    def __init__(self, code: int, text: str):
        super().__init__(text)
        self.code = code
        self.text = text


def _refuse(parser: tuple, message: str) -> _Exit:
    prog, usage, _ = parser
    return _Exit(2, f"{usage}{prog}: error: {message}\n")


def _help(parser: tuple, option: str, value) -> _Exit:
    if option == "-h" and value:
        value = value.lstrip("h") or None   # `-hh` is the flag twice
    if value is not None:
        return _refuse(parser, "argument -h/--help: ignored explicit "
                               f"argument {value!r}")
    return _Exit(0, parser[2])


def _is_negative_number(arg: str) -> bool:
    whole, dot, frac = arg[1:].partition(".")
    return (whole.isdecimal() and not dot) or \
        (frac.isdecimal() and (whole == "" or whole.isdecimal()))


def _read_option(parser: tuple, longs: tuple, arg: str):
    """None when `arg` is a positional argument, else (option, its explicit
    `=` value or None), where option is None when `arg` names none of
    `-h` and the long options `longs`."""
    if len(arg) < 2 or arg[0] != "-" or _is_negative_number(arg):
        return None
    if arg == "-h" or arg in longs:
        return arg, None
    head, eq, value = arg.partition("=")
    if eq and (head == "-h" or head in longs):
        return head, value
    if arg[1] == "-":
        matches = [name for name in longs if name.startswith(head)]
        if len(matches) > 1:
            raise _refuse(parser, f"ambiguous option: {arg} could match "
                                  f"{', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif arg[1] == "h":
        return "-h", arg[2:]
    return None if " " in arg else (None, None)


def _parse_command_line(argv: list) -> dict:
    """`run`'s option values by option name, and its `script`; raises
    _Exit for help and for a command line argparse refused."""
    unknown = []                # refused once the rest has been read
    for i, arg in enumerate(argv):
        read = None if arg == "--" else _read_option(_TOP, ("--help",), arg)
        if read is None:
            break
        if read[0] is None:
            unknown.append(arg)
        else:
            raise _help(_TOP, *read)
    if not argv or read is not None or argv[i:] == ["--"]:
        raise _refuse(_TOP, "the following arguments are required: "
                            "subcommand")
    if argv[i] != "run":
        raise _refuse(_TOP, f"argument subcommand: invalid choice: "
                            f"{argv[i]!r} (choose from 'run')")
    args = argv[i + 1:]
    # every argument is read before any is used, so an ambiguous prefix is
    # refused first; after `--` every argument is positional
    longs = ("--help",) + tuple(_RUN_DEFAULTS)
    reads = []
    for arg in args:
        if "--" in reads:
            reads.append(None)
        else:
            reads.append("--" if arg == "--" else
                         _read_option(_RUN, longs, arg))
    values = dict(_RUN_DEFAULTS, script=None)
    k = 0
    while k < len(args):
        read, k = reads[k], k + 1
        if read == "--" and values["script"] is None and k < len(args):
            read, k = None, k + 1           # `-- SCRIPT`
        if read is None or read == "--":
            if read == "--" or values["script"] is not None:
                unknown.append(args[k - 1])
            else:
                values["script"] = args[k - 1]
                if k < len(args) and reads[k] == "--":
                    k += 1                  # `SCRIPT --`
            continue
        option, value = read
        if option is None:
            unknown.append(args[k - 1])
        elif option in ("-h", "--help"):
            raise _help(_RUN, option, value)
        elif option == "--strict":
            if value is not None:
                raise _refuse(_RUN, "argument --strict: ignored explicit "
                                    f"argument {value!r}")
            values[option] = True
        else:
            if value is None:
                if k == len(args) or reads[k] is not None:
                    raise _refuse(_RUN, f"argument {option}: expected one "
                                        "argument")
                value, k = args[k], k + 1
            if option not in ("--corpus", "--out"):
                try:
                    value = int(value)
                except ValueError:
                    raise _refuse(_RUN, f"argument {option}: invalid int "
                                        f"value: {value!r}") from None
            values[option] = value
    if values["script"] is None:
        raise _refuse(_RUN, "the following arguments are required: script")
    if unknown:
        raise _refuse(_TOP, f"unrecognized arguments: {' '.join(unknown)}")
    return values


def main(argv: list | None = None) -> int:
    try:
        args = _parse_command_line(sys.argv[1:] if argv is None else argv)
    except _Exit as stop:
        (sys.stderr if stop.code else sys.stdout).write(stop.text)
        return stop.code
    with open(args["script"], encoding="utf-8") as fh:
        text = fh.read()
    try:
        script = parse_script(text)
    except ScriptError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    corpus = None
    if args["--corpus"]:
        try:
            corpus = [build_ring(spec) for spec in args["--corpus"].split(",")]
        except ScriptError as exc:
            print(f"parse error in --corpus: {exc}", file=sys.stderr)
            return 2
    options = Options(degree=args["--degree"], prime=args["--prime"],
                      strict=args["--strict"], corpus=corpus)
    outcome = run_script(script, options)
    payload = render_reports(outcome.reports)
    if args["--out"]:
        with open(args["--out"], "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    for rep in outcome.reports:
        if "error" in rep:
            print(f"[error] {rep['command']}: {rep['error']}", file=sys.stderr)
        else:
            print(f"[ok] {rep['command']} -> {rep.get('verdict', '')}",
                  file=sys.stderr)
    return outcome.exit_code


def run_process(argv: list | None = None) -> int:
    """`main` as a process entry: once it returns, every object still alive
    is frozen out of the garbage collector, so the interpreter's exit-time
    collections do not walk the modules, classes and caches that the OS
    reclaims anyway.  stdio is still flushed and `atexit` handlers still
    run."""
    try:
        return main(argv)
    finally:
        gc.freeze()


def build_ring(spec: str):
    """Build a finite ring from its mini-grammar spec, e.g. 'Quot(GF(2),[x],[x^4])'."""
    parser = Parser(tokenize(spec))
    expr = parser.expression()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ScriptError(f"expected end of ring spec, found {tok.text!r}",
                          tok.line, tok.col)
    session = Session(Options())
    ring = session.eval_decl_expr(expr, 1, 1)
    if not is_finite_base(ring):
        raise ScriptError(f"{spec!r} is not a finite ring spec", 1, 1)
    return ring


def _name_list(node, line, col) -> list[str]:
    if not isinstance(node, ListExpr):
        raise ScriptError("expected a [name, ...] list", line, col)
    names = []
    for item in node.items:
        if not isinstance(item, Name):
            raise ScriptError("expected a variable name", line, col)
        names.append(item.ident)
    return names


def _power_index(node, line, col) -> int:
    if isinstance(node, Name) and node.ident == "p":
        return 1
    if isinstance(node, Pow) and isinstance(node.base, Name) \
            and node.base.ident == "p" and isinstance(node.exponent, Num):
        return node.exponent.value
    raise ScriptError("expected p^k prefix in the expansion", line, col)


if __name__ == "__main__":
    sys.exit(run_process())
