import ast
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

import adickit
from adickit.groebner import buchberger, normal_form
from adickit.poly import Poly, exp_divides, exp_lcm, grevlex_key, monomials_upto

exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
polys = st.dictionaries(exponents, coeffs, max_size=5).map(
    lambda d: Poly(2, {e: c for e, c in d.items()}))


@given(polys, polys, polys)
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(polys, polys)
def test_leibniz_rule(f, g):
    for i in range(2):
        lhs = (f * g).derivative(i)
        rhs = f.derivative(i) * g + f * g.derivative(i)
        assert lhs == rhs


@given(polys)
def test_substitution_identity(f):
    one = Fraction(1)
    values = [Poly.variable(i, 2, one) for i in range(2)]
    assert f.substitute(values, 2, lambda c: c, one) == f


def test_grevlex_order_basics():
    # degree first, then the rightmost-smallest convention
    assert grevlex_key((2, 0)) > grevlex_key((1, 0))
    assert grevlex_key((1, 0)) > grevlex_key((0, 1))  # T > u at equal degree
    monos = monomials_upto(2, 2)
    assert monos == sorted(monos, key=grevlex_key)
    assert len(monos) == 6


def test_exponent_helpers():
    assert exp_divides((1, 0), (2, 1))
    assert not exp_divides((2, 0), (1, 1))
    assert exp_lcm((2, 0), (1, 3)) == (2, 3)


def _uncached_leading(poly):
    exp = max(poly.terms, key=grevlex_key)
    return exp, poly.terms[exp]


@settings(derandomize=True)
@given(polys, polys, exponents, coeffs)
def test_cached_leading_term_is_the_grevlex_maximum(f, g, exp, coeff):
    one = Fraction(1)
    for source in (f, g):       # a filled cache must not reach the results
        if not source.is_zero:
            source.leading()
    results = [f + g, f - g, f * g, f.scale(coeff), f.scale(one),
               f.mul_term(exp), f.derivative(0),
               f.derivative(1), f.extend_vars(3, 1)]
    if not g.is_zero:
        results.append(normal_form(f, buchberger([g])))
    for h in results:
        if h.is_zero:
            continue
        for _ in range(2):      # the first call fills the cache
            assert h.leading() == _uncached_leading(h)


_MUTATORS = {"pop", "popitem", "update", "clear", "setdefault"}


def _terms_mapping(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "terms"


def _terms_writes(tree) -> list:
    """Lines outside an `__init__` that write into a `.terms` mapping."""
    found = []

    def visit(node, in_init):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_init = node.name == "__init__"
        if not in_init:
            targets = []
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            if any(isinstance(t, ast.Subscript) and _terms_mapping(t.value)
                   for t in targets):
                found.append(node.lineno)
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in _MUTATORS and \
                    _terms_mapping(node.func.value):
                found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, in_init)

    visit(tree, False)
    return found


def test_guard_finds_writes_into_terms():
    source = """
class P:
    def __init__(self, t):
        self.terms = {}
        self.terms[(0,)] = t

def f(p, q):
    p.terms[(1,)] = 2
    del q.terms[(0,)]
    p.terms[(0,)] += 1
    p.terms.pop((0,))
    q.terms.update({})
    out = dict(p.terms)
    out[(2,)] = 3
"""
    assert _terms_writes(ast.parse(source)) == [8, 9, 10, 11, 12]


def test_no_terms_mapping_is_written_after_construction():
    # Poly caches its leading term, so writing into the terms of an
    # existing one would leave the cache stale
    package = Path(adickit.__file__).parent
    writes = {path.name: lines for path in sorted(package.glob("*.py"))
              if (lines := _terms_writes(ast.parse(path.read_text())))}
    assert writes == {}
