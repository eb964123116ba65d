import ast
import importlib
import inspect
import json
import pkgutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import adickit
from adickit.cli import (COMMANDS, BinOp, Call, CommandStmt, Declaration,
                         ListExpr, Name, Neg, Num, Options, Pow, ScriptError,
                         SessionScript, TupleExpr, parse_script, print_expr,
                         render_reports, run_script)

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


def test_build_ring_from_spec():
    from adickit.cli import build_ring
    assert build_ring("Zmod(4)").cardinality == 4
    assert build_ring("GF(2,2)").is_field
    assert build_ring("Quot(GF(2),[x],[x^4])").cardinality == 16
    assert build_ring("Prod(GF(2),Zmod(4))").cardinality == 8
    with pytest.raises(ScriptError):
        build_ring("Qp(2,8)")


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
# `ast`, `dis` and `tokenize`) into every process and generate code per class
STDLIB_KEPT_OUT = {"dataclasses", "inspect"}


def _modules_loaded(body: str) -> set:
    """The adickit modules, and those of STDLIB_KEPT_OUT, that a fresh
    interpreter holds after running `body`."""
    code = (f"import sys\n{body}\nprint(' '.join(m for m in sys.modules "
            f"if m.startswith('adickit.') or m in {STDLIB_KEPT_OUT!r}))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    return set(run.stdout.split())


def _run_in_fresh_process(script: Path, out: Path) -> set:
    return _modules_loaded(f"from adickit.cli import main\n"
                           f"main(['run', {str(script)!r}, '--out', "
                           f"{str(out)!r}])")


def test_command_libraries_load_on_first_use(tmp_path):
    loaded = _modules_loaded("import adickit.cli")
    assert "adickit.tate" in loaded
    assert not loaded & (COMMAND_LIBRARIES | {"adickit.infinitesimal"})

    script = tmp_path / "lifting.adk"
    script.write_text("ZB = Tate(ZZ, []); BZ = Quot(ZB, [T], [T^2 - T]); "
                      "C1 = Corpus(GF(2), Zmod(4)); "
                      "classify-lifting BZ corpus=C1 mode=dR; "
                      "classify-lifting BZ corpus=C1 mode=crys;",
                      encoding="utf-8")
    out = tmp_path / "lifting.json"
    loaded = _run_in_fresh_process(script, out)
    assert "adickit.infinitesimal" in loaded
    assert not loaded & COMMAND_LIBRARIES
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
    assert [r["verdict"] for r in json.loads(out.read_text())] == \
        ["etale", "d^2=0"]

    # a script using every command loads every library on the way and
    # reports what an in-process run of the same script reports
    out = tmp_path / "demo.json"
    loaded = _run_in_fresh_process(DEMO, out)
    assert loaded >= COMMAND_LIBRARIES | {"adickit.infinitesimal"}
    assert not loaded & STDLIB_KEPT_OUT
    in_process = run_script(parse_script(DEMO.read_text(encoding="utf-8")),
                            Options())
    assert out.read_text(encoding="utf-8") == \
        render_reports(in_process.reports)
