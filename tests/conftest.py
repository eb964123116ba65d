import os
from fractions import Fraction
from pathlib import Path

import pytest

import adickit
from adickit.tate import QpBase, free_presentation

# tests that spawn `python -m adickit.cli` need the package they import here
_SRC = str(Path(adickit.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def q2():
    return QpBase(2)


@pytest.fixture
def line(q2):
    """A = Q_2<T>."""
    return free_presentation(q2, ("T",))


def poly_over(pres, expr):
    """Tiny helper: build a polynomial from a dict {exponent-tuple: rational}."""
    from adickit.poly import Poly
    return Poly(pres.nvars, {e: Fraction(c) for e, c in expr.items()})
