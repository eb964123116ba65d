"""Report bytes pinned: each script below must render exactly the reports
committed beside it under golden/, as `adic-kit run` writes them to stdout.

The scripts are `docs/demo.adk`, the seed-1 `lifting`, `jacobian` and
`points` benchmark scripts, kept as text so that no test depends on the
benchmark package (`jacobian-1` without its `classify KD`, the known wrong
verdict that `test_classify_kd_is_etale` pins as a strict xfail);
`tablecap`, whose corpus has rings on both sides of
`finiterings.TABLE_CAP` (`Zmod(256)` and `Zmod(512)`), so that the report
bytes of the point search are pinned on its Cayley-table path and on its
element path; `witt`, Witt arithmetic and Frobenius over prime fields,
`GF(p,k)` for k = 2, 3, 4 and products, nested ones among them;
`gluing`, `glue-check` on one- and two-variable covers over `Qp(2,8)`, a
tower `Quot(A, [w], [w^2 - T])` and one joint lift `over=` its base, and
a name before a parenthesis inside an argument (`2*T (1)`); and
`hminus1`, `classify` where an H^-1 class has degree above a small `D=`
or comes from a zero relation or a zero Jacobian row.  A change
that alters a report on purpose regenerates the fixture with
`adic-kit run SCRIPT > tests/golden/NAME.json` and says why.
"""

from pathlib import Path

import pytest

from adickit.cli import Options, parse_script, render_reports, run_script

GOLDEN = Path(__file__).resolve().parent / "golden"
SCRIPTS = {"demo": GOLDEN.parent.parent / "docs" / "demo.adk",
           "gluing": GOLDEN / "gluing.adk",
           "hminus1": GOLDEN / "hminus1.adk",
           "jacobian-1": GOLDEN / "jacobian-1.adk",
           "lifting-1": GOLDEN / "lifting-1.adk",
           "points-1": GOLDEN / "points-1.adk",
           "tablecap": GOLDEN / "tablecap.adk",
           "witt": GOLDEN / "witt.adk"}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_reports_match_the_golden_file(name):
    text = SCRIPTS[name].read_text(encoding="utf-8")
    out = run_script(parse_script(text), Options())
    assert out.exit_code == 0
    assert render_reports(out.reports) == \
        (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
