"""The record classes are plain classes with slots: each keeps the defaults,
value semantics and argument checks its callers rely on."""

import pytest

from adickit.cli import (BinOp, ListExpr, Name, Num, Token, TupleExpr,
                         parse_script)
from adickit.finiterings import gf
from adickit.localization import ExactnessReport, JointSurjectionResult
from adickit.padics import DEFAULT_PRECISION
from adickit.tate import IntegerBase, QpBase
from adickit.wittrobba import (WITT_LENGTH_CAP, CharPNormedRing,
                               RobbaElement, WittError, WittVector)

from test_cli import _strip_positions, scripts_equal


def test_detail_dicts_are_per_instance():
    a = ExactnessReport("exact", "exact", "exact", 5, 5)
    b = ExactnessReport("exact", "exact", "exact", 5, 5)
    a.detail["kernel_dim"] = 1
    assert b.detail == {} and a != b
    b.detail["kernel_dim"] = 1
    assert a == b
    assert a != ExactnessReport("exact", "exact", "exact", 5, 6,
                               {"kernel_dim": 1})
    s = JointSurjectionResult([], "failed", False)
    t = JointSurjectionResult([], "failed", False)
    s.detail["reason"] = "no lift"
    assert t.detail == {}


def test_ast_nodes_compare_hash_and_print_by_value():
    assert Name("x").line == 0 and Name("x").col == 0
    assert Name("x", 1, 2) == Name("x", 1, 2) != Name("x", 1, 3)
    assert hash(Name("x", 1, 2)) == hash(Name("x", 1, 2))
    assert Num(3) == Num(3) != Num(4)
    assert len({Num(3), Num(3), Num(4)}) == 2
    tree = BinOp("+", Num(1), Name("x"))
    assert tree == BinOp("+", Num(1), Name("x"))
    assert tree != BinOp("-", Num(1), Name("x"))
    # equal slots in another class are another value
    assert ListExpr((Num(1),)) != TupleExpr((Num(1),))
    assert repr(tree) == ("BinOp(op='+', left=Num(value=1), "
                          "right=Name(ident='x', line=0, col=0))")
    with pytest.raises(TypeError,
                       match=r"^cannot normalize Token\(kind='NUM', "
                             r"text='1', line=1, col=2\)$"):
        _strip_positions(Token("NUM", "1", 1, 2))
    assert scripts_equal(parse_script("A = Qp(2, 8);"),
                         parse_script("\nA  =  Qp(2,8) ;"))
    assert not scripts_equal(parse_script("A = Qp(2, 8);"),
                             parse_script("A = Qp(2, 9);"))


def test_bases_compare_and_hash_by_value():
    assert QpBase(2, 8) == QpBase(2, 8)
    assert hash(QpBase(2, 8)) == hash(QpBase(2, 8))
    assert QpBase(2) == QpBase(2, DEFAULT_PRECISION)
    assert QpBase(2, 8) != QpBase(2, 9) and QpBase(2, 8) != QpBase(3, 8)
    assert IntegerBase() == IntegerBase()
    assert hash(IntegerBase()) == hash(IntegerBase())
    assert IntegerBase() != QpBase(2, 8) and QpBase(2, 8) != "Qp(2,8)"
    assert len({QpBase(2, 8), QpBase(2, 8), IntegerBase(), IntegerBase()}) \
        == 2


def test_witt_vectors_compare_and_hash_by_value():
    F2 = gf(2)
    a = WittVector(2, (F2.one, F2.zero), F2)
    b = WittVector(2, (F2.one, F2.zero), F2)
    assert a == b and hash(a) == hash(b)
    assert a != WittVector(2, (F2.one, F2.one), F2)
    assert a != (F2.one, F2.zero)
    assert repr(a) == f"({F2.one!r}, {F2.zero!r})"


def test_witt_and_robba_constructors_check_their_arguments():
    F2 = gf(2)
    long = (F2.zero,) * (WITT_LENGTH_CAP + 1)
    with pytest.raises(WittError, match="^Witt length exceeds cap 8$"):
        WittVector(2, long, F2)
    with pytest.raises(WittError, match="^coefficient ring has characteristic "
                                        "2, expected 3$"):
        WittVector(3, (F2.one,), F2)
    R2 = CharPNormedRing(2)
    assert RobbaElement(R2, (R2.one,) * WITT_LENGTH_CAP).length == 8
    with pytest.raises(WittError, match="^expansion length exceeds the cap$"):
        RobbaElement(R2, (R2.one,) * (WITT_LENGTH_CAP + 1))
