import ast
import gc
import importlib
import inspect
import json
import pkgutil
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import adickit
from adickit.cli import (COMMANDS, BinOp, Call, CommandStmt, Declaration,
                         ListExpr, Name, Neg, Num, Options, Pow, ScriptError,
                         SessionScript, TupleExpr, main, parse_script,
                         print_expr, render_reports, run_script)

SMOKE = "A = Tate(Qp(2,8), [T]); B = Quot(A, [u], [u - T^2]); classify B;"

FIXTURE_SCRIPT = """
Q = Qp(2, 8);
A = Tate(Q, [T]; D=8);
B = Quot(A, [u], [u - T^2]);
classify B;
L = Loc(A, T, 2);
classify L;
glue-check A (T) (2) D=6 N=6;
R1 = Zmod(4);
R2 = Quot(GF(2), [x], [x^4]);
C1 = Corpus(GF(2), R1, R2);
ZB = Tate(ZZ, []);
BZ = Quot(ZB, [T], [T^2 - T]);
classify-lifting BZ corpus=C1 mode=dR;
classify-lifting BZ corpus=C1 mode=crys;
drham B top=2;
witt add (1,0) (1,0) p=2;
robba-norm (p^0*[tbar^(1/2)] + p^1*[tbar^3]) r=1 p=2;
tilt R2;
integrate (T^2 + 1) 1 p=2 N=8;
"""


DEMO = Path(__file__).resolve().parent.parent / "docs" / "demo.adk"
LIBRARY = Path(adickit.__file__).resolve().parent

# loaded by the command that drives them, never by parsing or declarations
COMMAND_LIBRARIES = {"adickit.differentials", "adickit.localization",
                     "adickit.wittrobba", "adickit.linalg"}


# -- the parser round-trip oracle: print a script, compare without positions --

def print_script(script: SessionScript) -> str:
    lines = []
    for item in script.items:
        if isinstance(item, Declaration):
            lines.append(f"{item.name} = {print_expr(item.expr)};")
        else:
            parts = [print_expr(a) for a in item.args]
            parts += [f"{k}={print_expr(v)}" for k, v in item.kwargs]
            body = " ".join([item.command] + parts)
            lines.append(f"{body};")
    return "\n".join(lines) + "\n"


def _strip_positions(node):
    """Positions are diagnostics, not semantics; drop them for AST equality."""
    if isinstance(node, SessionScript):
        return ("script", tuple(_strip_positions(i) for i in node.items))
    if isinstance(node, Declaration):
        return ("decl", node.name, _strip_positions(node.expr))
    if isinstance(node, CommandStmt):
        return ("cmd", node.command,
                tuple(_strip_positions(a) for a in node.args),
                tuple((k, _strip_positions(v)) for k, v in node.kwargs))
    if isinstance(node, Num):
        return node
    if isinstance(node, Name):
        return ("name", node.ident)
    if isinstance(node, Neg):
        return ("neg", _strip_positions(node.operand))
    if isinstance(node, BinOp):
        return (node.op, _strip_positions(node.left),
                _strip_positions(node.right))
    if isinstance(node, Pow):
        return ("pow", _strip_positions(node.base),
                _strip_positions(node.exponent))
    if isinstance(node, (ListExpr, TupleExpr)):
        tag = "list" if isinstance(node, ListExpr) else "tuple"
        return (tag, tuple(_strip_positions(i) for i in node.items))
    if isinstance(node, Call):
        return ("call", node.func,
                tuple(_strip_positions(a) for a in node.args),
                tuple((k, _strip_positions(v)) for k, v in node.kwargs))
    raise TypeError(f"cannot normalize {node!r}")


def scripts_equal(a: SessionScript, b: SessionScript) -> bool:
    return _strip_positions(a) == _strip_positions(b)


def test_smoke_parse():
    script = parse_script(SMOKE)
    assert len(script.items) == 3


def test_undefined_name_position():
    out = run_script(parse_script("classify C;"), Options())
    assert out.exit_code == 1
    assert out.reports[0]["error"] == "undefined name C at 1:10"


def test_nested_quot_flattens():
    text = ("A = Tate(Qp(2,8), [T]); "
            "B = Quot(Quot(A, [u], [u - T^2]), [v], [v - u]); classify B;")
    out = run_script(parse_script(text), Options())
    assert out.exit_code == 0
    assert out.reports[0]["verdict"] == "etale"


def test_parse_print_fixpoint():
    for text in (SMOKE, FIXTURE_SCRIPT):
        ast = parse_script(text)
        assert scripts_equal(ast, parse_script(print_script(ast)))
        # printing is itself a fixpoint after one round
        printed = print_script(ast)
        assert print_script(parse_script(printed)) == printed


def test_parse_error_is_positioned():
    with pytest.raises(ScriptError) as err:
        parse_script("A = Tate(Qp(2,8), [T)")
    assert "at 1:" in str(err.value)


def test_run_reports_deterministic():
    a = render_reports(run_script(parse_script(FIXTURE_SCRIPT), Options()).reports)
    b = render_reports(run_script(parse_script(FIXTURE_SCRIPT), Options()).reports)
    assert a == b


def test_expected_verdicts():
    out = run_script(parse_script(FIXTURE_SCRIPT), Options())
    assert out.exit_code == 0
    verdicts = [r.get("verdict") for r in out.reports]
    assert verdicts[0] == "etale"          # classify B
    assert verdicts[1] == "etale"          # classify L
    assert verdicts[2] == "exact"          # glue-check
    assert verdicts[3] == "etale"          # lifting dR
    assert verdicts[4] == "etale"          # lifting crys
    glue = out.reports[2]["result"]
    assert {glue["left"], glue["middle"], glue["right"]} == {"exact"}
    witt = out.reports[6]["result"]
    assert witt["coords"] == ["0", "1"]
    robba = out.reports[7]["result"]
    assert robba["norm"] == "2^-1/2"
    assert robba["phi_scaling_holds"] is True


def test_command_error_exit_code():
    out = run_script(parse_script(
        "A = Tate(Qp(2,8), [T]); glue-check A (T) (T^2);"), Options())
    assert out.exit_code == 1
    assert "error" in out.reports[0]


def test_strict_mode_flags_inconclusive():
    # integer-base covering with a non-integral certificate is inconclusive
    text = "A = Tate(ZZ, [T]); glue-check A (0) (2);"
    relaxed = run_script(parse_script(text), Options())
    assert relaxed.exit_code == 1  # not a certified covering -> command error

    # a run whose report embeds an "inconclusive" fails only under --strict
    from adickit.cli import Session
    session = Session(Options(strict=True))
    fake = {"command": "x", "result": {"left": "inconclusive"}}
    from adickit.cli import _has_inconclusive
    assert _has_inconclusive(fake)
    assert not _has_inconclusive({"result": {"left": "exact"}})


def test_morphism_declarations_end_to_end():
    text = """
    A = Tate(Qp(2,8), [T]);
    B = Quot(A, [u], [u - T^2]);
    M1 = Morph(A, B, [T]);
    C = Quot(B, [v], [v - u]);
    M2 = Morph(B, C, [T, u]);
    M3 = Compose(M1, M2);
    classify M3;
    Ap = Tate(Qp(2,8), [S]);
    phi = Morph(A, Ap, [S^2]);
    B2 = BaseChange(B, phi);
    classify B2;
    """
    out = run_script(parse_script(text), Options())
    assert out.exit_code == 0, out.reports
    assert out.reports[0]["verdict"] == "etale"   # composite of graph-maps
    assert out.reports[1]["verdict"] == "etale"   # base-changed tower


def test_witt_over_gf4_with_generator_literal():
    text = "F = GF(2,2); witt mul (x,0) (x,0) p=2 over=F;"
    out = run_script(parse_script(text), Options())
    assert out.exit_code == 0
    # [x]*[x] = [x^2] and x^2 = x + 1 in this GF(4) model
    assert out.reports[0]["result"]["coords"][0] in ("1 + x", "x + 1")


def test_tilt_below_the_stable_point_reports_the_frobenius_image():
    text = "R = Quot(GF(2), [t], [t^4]); tilt R depth=1;"
    out = run_script(parse_script(text), Options())
    assert out.exit_code == 0, out.reports
    result = out.reports[0]["result"]
    assert result["depth"] == 1
    assert result["elements"] == ["0", "t^2", "1", "1 + t^2"]
    assert result["idempotent"] is False    # F(R) is not perfect yet


def test_integrate_gauss_norm_counts_terms_above_the_degree_cap():
    # the primitive 1/9*T^9 of T^8 has norm |1/9|_2 = 1, though its one
    # term lies above D = 8
    out = run_script(parse_script("integrate (T^8) 0 p=2 N=8;"), Options())
    assert out.exit_code == 0, out.reports
    result = out.reports[0]["result"]
    assert result["primitive"] == "1/9*T^9"
    assert result["gauss_norm"] == "1"


def test_classify_gauss_norms_count_terms_above_the_degree_cap():
    # 2*u - T^9 has the unit coefficient -1 on T^9, above D = 8
    text = ("A = Tate(Qp(2,8), [T]; D=8); "
            "B = Quot(A, [u], [2*u - T^9]); classify B;")
    out = run_script(parse_script(text), Options())
    assert out.exit_code == 0, out.reports
    assert out.reports[0]["result"]["generator_gauss_norms"] == ["1"]


def _first_error(text: str) -> str:
    out = run_script(parse_script(text), Options())
    assert out.exit_code == 1
    return out.reports[0]["error"]


def test_fractional_exponent_of_a_constant_is_an_error():
    # the bound 2^(1/2) was truncated to 2^0 = 1
    assert "exponent 1/2 is not an integer" in \
        _first_error("integrate (T) 2^(1/2) p=2;")


def test_fractional_exponent_of_a_ring_element_is_an_error():
    # the Witt coordinate 3^(1/2) was truncated to 3^0 = 1
    assert "exponent 1/2 is not an integer" in \
        _first_error("witt add (3^(1/2),0) (1,0) p=2;")


@pytest.mark.parametrize("text, message", [
    # each was truncated: Zmod(9/2) to Zmod(4), GF(2,3/2) to GF(2),
    # Qp(2,17/2) to Qp(2,8), D=7/2 and D=5/2 to 3 and 2, p=5/2 to p = 2
    # (reported `ok`) and depth=3/2 to 1
    ("R = Zmod(9/2); tilt R;", "Zmod argument 9/2"),
    ("F = GF(2, 3/2); tilt F;", "GF argument 3/2"),
    ("A = Tate(Qp(2, 17/2), [T]); classify A;", "Qp argument 17/2"),
    ("A = Tate(Qp(2,8), [T]; D=7/2); classify A;", "D value 7/2"),
    ("A = Tate(Qp(2,8), [T]); classify A D=5/2;", "D value 5/2"),
    ("witt add (1,0) (1,0) p=5/2;", "p value 5/2"),
    ("R = Quot(GF(2), [x], [x^4]); tilt R depth=3/2;", "depth value 3/2"),
], ids=["Zmod", "GF", "Qp", "Tate-D", "keyword", "witt-p", "tilt-depth"])
def test_fractional_integer_parameter_is_an_error(text, message):
    assert f"{message} is not an integer" in _first_error(text)


def test_fractional_exponent_of_a_polynomial_is_an_error():
    # the relation u - T^(3/2) was truncated to u - T
    assert "exponent 3/2 is not an integer" in _first_error(
        "A = Tate(Qp(2,8), [T]); B = Quot(A, [u], [u - T^(3/2)]); "
        "classify B;")


def test_cli_process_round_trip(tmp_path):
    script = tmp_path / "fixture.adk"
    script.write_text(FIXTURE_SCRIPT, encoding="utf-8")
    run1 = subprocess.run(
        [sys.executable, "-m", "adickit.cli", "run", str(script)],
        capture_output=True, text=True)
    run2 = subprocess.run(
        [sys.executable, "-m", "adickit.cli", "run", str(script)],
        capture_output=True, text=True)
    assert run1.returncode == 0
    assert run1.stdout == run2.stdout  # byte-identical reports
    payload = json.loads(run1.stdout)
    assert payload[0]["verdict"] == "etale"
    assert all(rep["version"] == payload[0]["version"] for rep in payload)


def test_cli_parse_error_exit_code(tmp_path):
    script = tmp_path / "broken.adk"
    script.write_text("A = Tate(Qp(2,8), [T)", encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "adickit.cli", "run", str(script)],
        capture_output=True, text=True)
    assert run.returncode == 2


def test_cli_out_file(tmp_path):
    script = tmp_path / "s.adk"
    script.write_text(SMOKE, encoding="utf-8")
    target = tmp_path / "report.json"
    run = subprocess.run(
        [sys.executable, "-m", "adickit.cli", "run", str(script),
         "--out", str(target)],
        capture_output=True, text=True)
    assert run.returncode == 0
    assert json.loads(target.read_text())[0]["verdict"] == "etale"


# exit code -> a script that ends with it: a command error is 1, a parse
# error 2
EXIT_SCRIPTS = {0: SMOKE,
                1: "A = Tate(Qp(2,8), [T]); glue-check A (T) (T^2); "
                   "classify A;",
                2: "A = Tate(Qp(2,8), [T)"}


@pytest.mark.parametrize("code", sorted(EXIT_SCRIPTS))
def test_module_entry_matches_in_process_main(code, tmp_path, capsys):
    """`python -m adickit run`, the process the benchmark spawns, writes
    the bytes and exits with the code that `main` returns in process."""
    script = tmp_path / "s.adk"
    script.write_text(EXIT_SCRIPTS[code], encoding="utf-8")
    assert main(["run", str(script)]) == code
    expected = capsys.readouterr().out.encode("utf-8")
    assert main(["run", str(script), "--out", str(tmp_path / "in.json")]) \
        == code
    assert capsys.readouterr().out == ""

    run = subprocess.run([sys.executable, "-m", "adickit", "run",
                          str(script)], capture_output=True)
    assert run.returncode == code
    assert run.stdout == expected
    target = tmp_path / "out.json"
    run = subprocess.run([sys.executable, "-m", "adickit", "run",
                          str(script), "--out", str(target)],
                         capture_output=True)
    assert run.returncode == code
    assert run.stdout == b""
    if code == 2:       # a parse error writes no report
        assert not target.exists() and not (tmp_path / "in.json").exists()
    else:
        assert target.read_bytes() == expected
        assert (tmp_path / "in.json").read_bytes() == expected


def test_in_process_main_keeps_normal_collection(tmp_path, capsys):
    script = tmp_path / "s.adk"
    script.write_text(SMOKE, encoding="utf-8")
    before = gc.get_freeze_count()
    assert main(["run", str(script)]) == 0
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("module", ["adickit", "adickit.cli"])
def test_process_entries_freeze_before_exit(module, tmp_path):
    """Run as `python -m MODULE run SCRIPT` does, with an `atexit` probe:
    the probe still runs, and by then every live object is frozen out of
    the exit-time collections."""
    script = tmp_path / "s.adk"
    script.write_text(SMOKE, encoding="utf-8")
    code = ("import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count(), "
            "file=sys.stderr))\n"
            f"sys.argv = ['{module}', 'run', {str(script)!r}]\n"
            f"runpy.run_module({module!r}, run_name='__main__', "
            f"alter_sys=True)\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert run.returncode == 0
    assert json.loads(run.stdout)[0]["verdict"] == "etale"
    frozen = [line.split() for line in run.stderr.splitlines()
              if line.startswith("frozen ")]
    assert len(frozen) == 1 and int(frozen[0][1]) > 0


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(LIBRARY.parent.parent / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"adic-kit": "adickit.cli:run_process"}


@pytest.mark.parametrize("text, echo", [
    ("A2 = Tate(Qp(2,8), [X, Y]); glue-check A2 (X - 3*Y) (2);",
     "glue-check A2 (X - (3 * Y)) 2"),
    ("A = Tate(Qp(2,8), [T]); glue-check A (T) (2) D=6 N=6;",
     "glue-check A T 2 D=6 N=6"),
    ("witt add (0,1) (1,0) p=2;", "witt add (0, 1) (1, 0) p=2"),
    ("witt teichmuller (1) p=2;", "witt teichmuller 1 p=2"),
    # a name that is no constructor ends the expression before a parenthesis
    ("integrate 2*T (1) p=2;", "integrate (2 * T) 1 p=2"),
    ("A = Tate(Qp(2,8), [T]); glue-check A 2*T (1 - 2*T);",
     "glue-check A (2 * T) (1 - (2 * T))"),
    ("A = Tate(Qp(2,8), [T]); glue-check A(T)(2);", "glue-check A T 2"),
    # a constructor call stays a call
    ("tilt GF(2,2);", "tilt GF(2, 2)"),
])
def test_echo_keeps_a_name_apart_from_the_argument_after_it(text, echo):
    out = run_script(parse_script(text), Options())
    assert out.exit_code == 0, out.reports
    assert out.reports[-1]["command"] == echo
    # the echo parses back to the same command
    assert scripts_equal(parse_script(echo + ";"),
                         SessionScript((parse_script(text).items[-1],)))


def test_an_unknown_constructor_is_a_parse_error_that_names_it(tmp_path):
    with pytest.raises(ScriptError, match="^unknown constructor Foo at 1:5$"):
        parse_script("X = Foo(1);")
    script = tmp_path / "foo.adk"
    script.write_text("A = Tate(Qp(2,8), [T]);\nX = A*Foo(1);\n",
                      encoding="utf-8")
    run = subprocess.run([sys.executable, "-m", "adickit", "run", str(script)],
                         capture_output=True, text=True)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr == "parse error: unknown constructor Foo at 2:7\n"


CLASSIFY_B = "A = Tate(Qp(2,8), [T]); B = Quot(A, [u], [u^2 - T]);"


def test_classify_ignores_cap_and_precision_keywords():
    # D= and N= bind nothing: the reports differ only in their echo
    plain, keyed = (run_script(parse_script(CLASSIFY_B + cmd), Options())
                    for cmd in ("classify B;", "classify B D=0 N=1;"))
    assert plain.exit_code == keyed.exit_code == 0
    assert keyed.reports[-1].pop("command") == "classify B D=0 N=1"
    assert plain.reports[-1].pop("command") == "classify B"
    assert plain.reports == keyed.reports
    assert set(plain.reports[-1]["params"]) == {"degree_cap", "prime"}
    assert "truncation" not in plain.reports[-1]["result"]


def test_classify_still_refuses_a_negative_cap():
    out = run_script(parse_script(CLASSIFY_B + "\nclassify B D=-1;"),
                     Options())
    assert out.exit_code == 1
    assert [r.get("error") for r in out.reports] == \
        ["PresentationError: negative degree cap -1 at 2:1"]


def test_qp_precision_argument_does_not_split_the_base():
    # Qp(2,6) and Qp(2,8) are one field Q_2, so a morphism may join them
    script = ("B = Quot(Tate(Qp(2,8), [T]), [u], [u - T^2]);"
              "M = Morph(Tate(Qp(2,6), [T]), B, [T]); classify M;")
    same = script.replace("Qp(2,6)", "Qp(2,8)")
    runs = [run_script(parse_script(t), Options()) for t in (script, same)]
    assert [r.exit_code for r in runs] == [0, 0]
    assert runs[0].reports == runs[1].reports
    assert runs[0].reports[-1]["verdict"] == "etale"


def test_classify_and_gluing_take_no_cap_or_precision():
    from adickit.differentials import (classify_morphism,
                                       naive_cotangent_complex)
    from adickit.localization import gluing_sequence_check
    for fn in (classify_morphism, naive_cotangent_complex):
        assert list(inspect.signature(fn).parameters) == ["arg"]
    assert list(inspect.signature(gluing_sequence_check).parameters) == \
        ["cov"]
    assert list(inspect.signature(Options).parameters) == \
        ["degree", "prime", "strict", "corpus"]


def test_build_ring_from_spec():
    from adickit.cli import build_ring
    assert build_ring("Zmod(4)").cardinality == 4
    assert build_ring("GF(2,2)").is_field
    assert build_ring("Quot(GF(2),[x],[x^4])").cardinality == 16
    assert build_ring("Prod(GF(2),Zmod(4))").cardinality == 8
    with pytest.raises(ScriptError):
        build_ring("Qp(2,8)")


def test_corpus_option_refuses_text_after_a_ring_spec(tmp_path):
    from adickit.cli import build_ring
    with pytest.raises(ScriptError, match="^expected end of ring spec, "
                                          "found 'GF' at 1:9$"):
        build_ring("Zmod(4) GF(3)")
    script = tmp_path / "s.adk"
    script.write_text("ZB = Tate(ZZ, []); B = Quot(ZB, [T], [T^2 - T]); "
                      "classify-lifting B;", encoding="utf-8")
    run = subprocess.run([sys.executable, "-m", "adickit", "run", str(script),
                          "--corpus", "Zmod(4) GF(3)"],
                         capture_output=True, text=True)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr == ("parse error in --corpus: expected end of ring "
                          "spec, found 'GF' at 1:9\n")


@pytest.mark.parametrize("text, message", [
    ("A = Tate(Qp(), [T]);", "Qp takes 1 or 2 arguments, got 0 at 1:10"),
    ("Q = Qp(2, 8, 1);", "Qp takes 1 or 2 arguments, got 3 at 1:5"),
    ("R = Zmod();", "Zmod takes 1 argument, got 0 at 1:5"),
    ("R = Zmod(4, 2);", "Zmod takes 1 argument, got 2 at 1:5"),
    ("R = GF();", "GF takes 1 or 2 arguments, got 0 at 1:5"),
    ("R = GF(2, 2, 1);", "GF takes 1 or 2 arguments, got 3 at 1:5"),
    ("R = Prod(GF(2));", "Prod takes 2 arguments, got 1 at 1:5"),
    ("R = Prod(GF(2), GF(3), GF(5));", "Prod takes 2 arguments, got 3 at 1:5"),
    ("A = Tate(Qp(2));", "Tate takes 2 arguments, got 1 at 1:5"),
    ("A = Tate(ZZ, [T], [S]; D=3);", "Tate takes 2 arguments, got 3 at 1:5"),
    ("B = Quot(A, [u]);", "Quot takes 3 arguments, got 2 at 1:5"),
    ("B = Quot(A, [u], [u], [v]);", "Quot takes 3 arguments, got 4 at 1:5"),
    ("L = Loc(A, T);", "Loc takes 3 arguments, got 2 at 1:5"),
    ("L = Loc(A, T, 2, 3);", "Loc takes 3 arguments, got 4 at 1:5"),
    ("M = Morph(A, B);", "Morph takes 3 arguments, got 2 at 1:5"),
    ("M = Morph(A, B, [T], [u]);", "Morph takes 3 arguments, got 4 at 1:5"),
    ("K = Compose(M);", "Compose takes 2 arguments, got 1 at 1:5"),
    ("K = Compose(M, M, M);", "Compose takes 2 arguments, got 3 at 1:5"),
    ("C = BaseChange(B);", "BaseChange takes 2 arguments, got 1 at 1:5"),
    ("C = BaseChange(B, M, M);",
     "BaseChange takes 2 arguments, got 3 at 1:5"),
    ("classify-lifting B corpus=Corpus(Zmod());",
     "Zmod takes 1 argument, got 0 at 1:34")])
def test_a_constructor_call_with_a_wrong_argument_count_is_a_parse_error(
        text, message):
    with pytest.raises(ScriptError, match=f"^{re.escape(message)}$"):
        parse_script(text)


def test_optional_constructor_arguments_still_parse(tmp_path):
    out = run_script(parse_script(
        "Q = Qp(2, 8); P = Qp(2); F = GF(2); F4 = GF(2, 2); E = Corpus(); "
        "C = Corpus(F, F4);"), Options())
    assert out.exit_code == 0 and out.reports == []
    script = tmp_path / "short.adk"
    script.write_text("A = Tate(Qp(), [T]);", encoding="utf-8")
    run = subprocess.run([sys.executable, "-m", "adickit", "run", str(script)],
                         capture_output=True, text=True)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr == \
        "parse error: Qp takes 1 or 2 arguments, got 0 at 1:10\n"


def _argparse_reference(argv: list) -> int:
    """The command line as `main` read it with argparse before it read it
    by hand: parse `argv`, then run `main` on the options it found."""
    import argparse
    parser = argparse.ArgumentParser(prog="adic-kit")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    run = sub.add_parser("run", help="run a script")
    run.add_argument("script")
    run.add_argument("--degree", type=int, default=8)
    run.add_argument("--precision", type=int, default=8,
                     help="no effect: coefficients are exact rationals")
    run.add_argument("--prime", type=int, default=2)
    run.add_argument("--corpus", default=None,
                     help="comma-separated ring specs, e.g. 'Zmod(4),GF(2)'")
    run.add_argument("--strict", action="store_true")
    run.add_argument("--out", default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return stop.code
    canonical = ["run", "--degree", str(args.degree), "--prime",
                 str(args.prime)]
    if args.corpus is not None:
        canonical += ["--corpus", args.corpus]
    if args.strict:
        canonical.append("--strict")
    if args.out is not None:
        canonical += ["--out", args.out]
    return main(canonical + ["--", args.script])


PARITY_SCRIPT = ("ZB = Tate(ZZ, []); B = Quot(ZB, [T], [T^2 - T]); "
                 "classify-lifting B; X = Tate(ZZ, [S]);")


@pytest.mark.parametrize("argv", [
    "-h", "--he", "run -h", "run s.adk --help", "", "run", "foo",
    "run s.adk --bogus", "--bogus run s.adk", "run s.adk --pr 3",
    "run s.adk --pr=3", "run s.adk --degree x", "run s.adk --degree",
    "run --degree", "run s.adk --degree=3", "run s.adk --deg 3",
    "run --deg 3 --prime 3 s.adk", "run s.adk --deg 3 --prime=3",
    "run --prime 3 s.adk --deg=-1", "run s.adk --deg 3 --deg 2",
    "run s.adk --strict", "run s.adk --strict=1", "run s.adk --out F",
    "run --out=F s.adk --strict", "run s.adk --corpus Zmod(4),GF(2)",
    "run s.adk --corpus Zmod(4)_GF(2)", "run s.adk --corpus Foo(2)",
    "run s.adk other.adk", "run -- s.adk", "run s.adk -- --strict",
    "run --strict -- s.adk", "run --out -- s.adk", "run s.adk -hh",
    "run s.adk -hx", "--help=x", "run --=3 s.adk", "run s.adk --precision 1",
    "-- run s.adk"])
def test_command_line_reads_as_argparse_did(argv, tmp_path, monkeypatch,
                                             capsys):
    argv = [arg.replace("_", " ") for arg in argv.split()]
    (tmp_path / "s.adk").write_text(PARITY_SCRIPT, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")

    def written():
        target = tmp_path / "F"
        if not target.exists():
            return None
        text = target.read_text(encoding="utf-8")
        target.unlink()
        return text

    code = _argparse_reference(argv)
    expected = (code, *capsys.readouterr(), written())
    run = subprocess.run([sys.executable, "-m", "adickit", *argv],
                         capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr, written()) == expected


# command (or the declarations) -> library functions, as (module, name), it
# must reach on COVERAGE_SCRIPT
COVERAGE = {
    # `Zmod` and `GF` are `lru_cache` lookups once their ring is built, so
    # they need not reach the library; the other ring builders intern
    "declarations": [("finiterings", "product_ring"),
                     ("finiterings", "fp_quotient"),
                     ("finiterings", "_interned"), ("groebner", "buchberger"),
                     ("groebner", "normal_form"),
                     ("tate", "free_presentation"), ("tate", "extend"),
                     ("tate", "compose_presentations"),
                     ("tate", "base_change"),
                     ("localization", "rational_localization")],
    "classify": [("differentials", "classify_morphism"),
                 ("differentials", "naive_cotangent_complex"),
                 ("differentials", "kahler_differentials"),
                 ("tate", "gauss_norm"), ("padics", "rational_valuation"),
                 # over a field, H^-1 is one syzygy computation on the
                 # tagged Jacobian rows
                 ("tate", "tagged_free_module"),
                 ("groebner", "syzygy_basis"),
                 # a finite non-field base decides Fitting ideals and H^-1
                 # by lattices
                 ("finiterings", "spans_group"),
                 ("finiterings", "hom_kernel")],
    "classify-lifting": [("infinitesimal", "classify_lifting"),
                         ("infinitesimal", "default_corpus"),
                         ("infinitesimal", "point_set"),
                         ("infinitesimal", "completed_points"),
                         ("infinitesimal", "enumerate_nilpotent_ideals"),
                         ("infinitesimal", "enumerate_pd_structures"),
                         ("finiterings", "nilradical")],
    "glue-check": [("localization", "covering_check"),
                   ("localization", "gluing_sequence_check"),
                   ("localization", "joint_surjection_lift"),
                   ("localization", "rational_localization")],
    "drham": [("differentials", "de_rham_complex")],
    "witt": [("wittrobba", "witt_arith"), ("wittrobba", "frobenius_witt"),
             ("wittrobba", "verschiebung")],
    "robba-norm": [("wittrobba", "robba_norm"),
                   ("wittrobba", "interval_norm"),
                   ("wittrobba", "phi_action")],
    "tilt": [("wittrobba", "tilt"), ("finiterings", "nilradical")],
    "integrate": [("differentials", "etale_integration"),
                  ("tate", "gauss_norm"), ("padics", "rational_valuation")],
}

COVERAGE_SCRIPT = FIXTURE_SCRIPT + """
M1 = Morph(A, B, [T]);
C = Quot(B, [v], [v - u]);
M3 = Compose(M1, Morph(B, C, [T, u]));
B2 = BaseChange(B, Morph(A, Tate(Q, [S]), [S^2]));
P = Prod(GF(2), R1);
witt verschiebung (1,0) p=2;
witt frobenius (1,0,1) p=2 over=GF(2);
robba-norm (p^0*[tbar] + p^1*[1]) s=1 r=2 p=2;
E = Quot(Tate(R1, []), [e], [e^2 - e]);
classify E;
classify-lifting BZ mode=dR p=3;
V = Quot(A, [u, v], [u - v]);
drham V top=3;
robba-norm ([0]) p=2;
glue-check C (v) (1 - v) D=2 over=B;
"""


@lru_cache(maxsize=None)
def _recorded_run(text: str) -> tuple:
    """Parse and run a script, render its reports, and record the "call"
    events of `sys.setprofile`: per command (parsing and declarations under
    "declarations"), the (module, function name) of each library function
    it calls, and the code objects of all of them."""
    reached: dict = {}
    codes: set = set()
    current = ["declarations"]

    def record(frame, event, arg):
        if event != "call":
            return
        module = frame.f_globals.get("__name__", "")
        name = frame.f_code.co_name
        if module == "adickit.cli" and name == "run_command":
            current[0] = frame.f_locals["cmd"].command
        elif module == "adickit.cli" and name == "declare":
            current[0] = "declarations"
        if module.startswith("adickit."):
            reached.setdefault(current[0], set()).add(
                (module[len("adickit."):], name))
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        out = run_script(parse_script(text), Options())
        render_reports(out.reports)
    finally:
        sys.setprofile(previous)
    assert out.exit_code == 0, out.reports
    return reached, frozenset(codes)


def test_every_command_reaches_its_listed_operations():
    reached, _ = _recorded_run(COVERAGE_SCRIPT)
    assert set(COVERAGE) == set(COMMANDS) | {"declarations"}
    missing = {command: [op for op in ops
                         if op not in reached.get(command, set())]
               for command, ops in COVERAGE.items()}
    assert not any(missing.values()), missing


# public functions and methods that COVERAGE_SCRIPT does not reach and no
# other library code names, each with the reason it stays
UNREACHED_ALLOWED = {
    ("infinitesimal", "PDStructure.verify"):
        "the divided-power axiom oracle of the PD-structure tests",
    ("infinitesimal", "PDStructure.gamma"):
        "the divided powers gamma_n that the axiom oracle checks",
    **{("wittrobba", name): "the Witt-layer Robba product that acceptance "
                            "criterion 7 checks"
       for name in ("RobbaElement.padded", "RobbaElement.to_witt",
                    "RobbaElement.from_witt", "RobbaElement.trimmed",
                    "RobbaElement.length", "NormedElement.inv_frobenius",
                    "CharPNormedRing.characteristic")},
}


def _public_functions() -> dict:
    """Code object -> (module, qualified name) of every public function and
    method of the library: names without a leading underscore, at module
    level or in a public class; properties by their getter."""
    found = {}
    for info in pkgutil.iter_modules([str(LIBRARY)]):
        if info.name.startswith("_"):
            continue            # `__main__` runs the CLI on import
        module = importlib.import_module(f"adickit.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or \
                    getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) \
                else [(name, obj)]
            for member_name, member in members:
                if member_name.startswith("_"):
                    continue
                member = getattr(member, "__func__",
                                 getattr(member, "fget", member))
                member = getattr(member, "__wrapped__", member)  # lru_cache
                if inspect.isfunction(member):
                    found[member.__code__] = (info.name, member.__qualname__)
    return found


def _names_used_outside() -> set:
    """(module, qualified name of the enclosing function or "" at module
    level, identifier) for every name and attribute the library reads."""
    used = set()

    class Visitor(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.scope = module, []

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

        def visit_Name(self, node):
            if isinstance(node.ctx, ast.Load):
                used.add((self.module, ".".join(self.scope), node.id))

        def visit_Attribute(self, node):
            if isinstance(node.ctx, ast.Load):
                used.add((self.module, ".".join(self.scope), node.attr))
            self.generic_visit(node)

    for path in LIBRARY.glob("*.py"):
        Visitor(path.stem).visit(ast.parse(path.read_text(encoding="utf-8")))
    return used


def test_every_public_function_is_reached():
    # reached means: called on COVERAGE_SCRIPT, or, for a module-level
    # function, named by library code outside its own body, or allowed
    # above with a reason; a method counts only by its recorded call, since
    # a name cannot tell which class's method of that name it binds
    _, called = _recorded_run(COVERAGE_SCRIPT)
    used = _names_used_outside()
    unreached = set()
    for code, (module, qualname) in _public_functions().items():
        if code in called:
            continue
        if "." in qualname or not any(ident == qualname and not (
                   where == module and (scope == qualname or
                                        scope.startswith(qualname + ".")))
                   for where, scope, ident in used):
            unreached.add((module, qualname))
    assert unreached == set(UNREACHED_ALLOWED), \
        sorted(unreached ^ set(UNREACHED_ALLOWED))
    assert len(UNREACHED_ALLOWED) <= 12


# imported by none of the library: `dataclasses` would load `inspect` (with
# `ast`, `dis` and `tokenize`) into every process and generate code per
# class, and `argparse` would load `gettext` to read one subcommand's options
STDLIB_KEPT_OUT = {"dataclasses", "inspect", "argparse", "gettext"}


def _modules_loaded(body: str) -> set:
    """The adickit package and modules, and those of STDLIB_KEPT_OUT, that a
    fresh interpreter holds after running `body`."""
    code = (f"import sys\n{body}\nprint(' '.join(m for m in sys.modules "
            f"if m.split('.')[0] == 'adickit' or m in {STDLIB_KEPT_OUT!r}))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    return set(run.stdout.split())


def _run_in_fresh_process(script: Path, out: Path) -> set:
    return _modules_loaded(f"from adickit.cli import main\n"
                           f"main(['run', {str(script)!r}, '--out', "
                           f"{str(out)!r}])")


def _script_loads(tmp_path, text: str) -> set:
    script = tmp_path / "loads.adk"
    script.write_text(text, encoding="utf-8")
    return _run_in_fresh_process(script, tmp_path / "loads.json")


def test_command_libraries_load_on_first_use(tmp_path):
    loaded = _modules_loaded("import adickit.cli")
    assert "adickit.tate" in loaded
    assert not loaded & (COMMAND_LIBRARIES | STDLIB_KEPT_OUT | {
        "adickit.infinitesimal", "adickit.norms", "adickit.finiterings",
        "adickit.groebner"})

    # the lifting set-up declares Z presentations only: no finite-ring or
    # Groebner layer, and no command-line library
    assert _script_loads(
        tmp_path, "ZB = Tate(ZZ, []); I = Quot(ZB, [S], [S^2 + 9*S + 20]); "
        "F = Tate(ZZ, [S]); U2 = Quot(ZB, [S], [S^2 + 3*S + 2, 2]);") == \
        {"adickit", "adickit.cli", "adickit.tate", "adickit.poly",
         "adickit.padics"}
    for text in ("R = Zmod(4);", "R = GF(2);"):
        assert "adickit.finiterings" in _script_loads(tmp_path, text)
    # a tautological joint lift (no `over=`) and a localization eliminate
    # nothing; a lift over a tower prefix does
    for text in ("A = Tate(Qp(2), [T]); L = Loc(A, T, 2);",
                 "A = Tate(Qp(2), [T]); glue-check A (T) (2);"):
        loaded = _script_loads(tmp_path, text)
        assert "adickit.localization" in loaded
        assert "adickit.linalg" not in loaded
    assert "adickit.linalg" in _script_loads(
        tmp_path, "A = Tate(Qp(2), [T]); B = Quot(A, [w], [w^2 - T]); "
        "glue-check B (w) (1 - w) D=3 over=A;")

    # declarations alone load no command library and no norms
    script = tmp_path / "declarations.adk"
    script.write_text("A = Tate(Qp(2, 8), [T]); B = Quot(A, [u], [u - T^2]); "
                      "ZB = Tate(ZZ, []); R = Quot(GF(2), [x], [x^2]); "
                      "C1 = Corpus(GF(2), Zmod(4), R);", encoding="utf-8")
    out = tmp_path / "declarations.json"
    loaded = _run_in_fresh_process(script, out)
    assert not loaded & (COMMAND_LIBRARIES | {"adickit.infinitesimal",
                                              "adickit.norms"})
    assert out.read_text(encoding="utf-8") == "[]\n"

    script = tmp_path / "lifting.adk"
    script.write_text("ZB = Tate(ZZ, []); BZ = Quot(ZB, [T], [T^2 - T]); "
                      "C1 = Corpus(GF(2), Zmod(4)); "
                      "classify-lifting BZ corpus=C1 mode=dR; "
                      "classify-lifting BZ corpus=C1 mode=crys;",
                      encoding="utf-8")
    out = tmp_path / "lifting.json"
    loaded = _run_in_fresh_process(script, out)
    assert "adickit.infinitesimal" in loaded
    assert not loaded & (COMMAND_LIBRARIES | {"adickit.norms"})
    assert [r["verdict"] for r in json.loads(out.read_text())] == \
        ["etale", "etale"]

    # the Jacobian route eliminates by Groebner bases alone
    script = tmp_path / "jacobian.adk"
    script.write_text("A = Tate(Qp(2, 8), [T]); B = Quot(A, [u], [u - T^2]); "
                      "classify B; drham B top=2;", encoding="utf-8")
    out = tmp_path / "jacobian.json"
    loaded = _run_in_fresh_process(script, out)
    assert "adickit.differentials" in loaded
    assert not loaded & {"adickit.linalg", "adickit.localization"}
    # `classify` over Qp reports the generators' Gauss norms
    assert "adickit.norms" in loaded
    assert [r["verdict"] for r in json.loads(out.read_text())] == \
        ["etale", "d^2=0"]

    # a script using every command loads every library on the way but
    # `linalg` (its `glue-check` has no `over=`), and reports what an
    # in-process run of the same script reports
    out = tmp_path / "demo.json"
    loaded = _run_in_fresh_process(DEMO, out)
    assert loaded >= COMMAND_LIBRARIES - {"adickit.linalg"} | {
        "adickit.infinitesimal"}
    assert "adickit.linalg" not in loaded
    assert not loaded & STDLIB_KEPT_OUT
    in_process = run_script(parse_script(DEMO.read_text(encoding="utf-8")),
                            Options())
    assert out.read_text(encoding="utf-8") == \
        render_reports(in_process.reports)
