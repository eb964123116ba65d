import json
import subprocess
import sys
from pathlib import Path

import pytest

from adickit.cli import (COMMANDS, COVERAGE, OPERATION_REGISTRY, Options,
                         ScriptError, parse_script, print_script,
                         render_reports, run_script, scripts_equal)

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

# loaded by the command that drives them, never by parsing or declarations
COMMAND_LIBRARIES = {"adickit.differentials", "adickit.localization",
                     "adickit.wittrobba", "adickit.linalg"}


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


def test_coverage_map_reaches_every_operation():
    covered = set()
    for ops in COVERAGE.values():
        covered.update(ops)
    missing = [op for op in OPERATION_REGISTRY
               if op not in covered and op not in ("parse_script", "run_script")]
    assert not missing, f"operations unreachable from the CLI: {missing}"
    for command in COMMANDS:
        assert command in COVERAGE


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
