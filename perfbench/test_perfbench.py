"""Tests of the benchmark itself: generator, outcome gate and tracer.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads


def _passing_report(cmd: workloads.Command) -> dict:
    """A report that meets every check of `cmd`."""
    report = {"command": cmd.text, "result": {}}
    for path, allowed in cmd.checks:
        node = report
        *parents, leaf = path.split(".")
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = allowed[0]
    return report


def _stdout(reports: list) -> bytes:
    return json.dumps(reports, indent=2).encode()


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_same_seed_gives_byte_identical_scripts(name):
    first = workloads.generate(name, 7)
    again = workloads.generate(name, 7)
    assert first.script() == again.script()
    assert first.setup_script() == again.setup_script()
    assert first.script() != workloads.generate(name, 8).script()
    assert first.script().startswith(first.setup_script())


def test_gate_flags_a_flipped_verdict():
    workload = workloads.generate("lifting", 3)
    etale = next(c for c in workload.commands if c.checks == workloads.ETALE)
    report = _passing_report(etale)
    assert workloads.outcome_failure(etale, report) == ""
    report["verdict"] = "none"
    assert "verdict" in workloads.outcome_failure(etale, report)

    reports = [_passing_report(c) for c in workload.commands]
    checker = run.Checker(workload)
    checker.full(_stdout(reports))
    assert (checker.attempted, checker.failed, checker.unexpected) == \
        (len(reports), 0, [])
    reports[workload.commands.index(etale)]["verdict"] = "none"
    checker.full(_stdout(reports))
    assert checker.failed == 1 and len(checker.unexpected) == 1


def test_known_defect_counts_as_failed_but_stays_expected():
    workload = workloads.generate("jacobian", 0)
    defect = next(c for c in workload.commands if c.known_defect)
    reports = [_passing_report(c) for c in workload.commands]
    index = workload.commands.index(defect)
    reports[index]["verdict"] = "none"
    reports[index]["result"]["h0"] = "nonzero"
    checker = run.Checker(workload)
    checker.full(_stdout(reports))
    checker.full(_stdout(reports))
    assert checker.failed == 2 and checker.unexpected == []


@pytest.mark.parametrize("wrong", [{"verdict": "lisse"},
                                   {"error": "ZeroDivisionError"}])
def test_known_defect_failing_another_way_is_unexpected(wrong):
    workload = workloads.generate("jacobian", 0)
    defect = next(c for c in workload.commands if c.known_defect)
    reports = [_passing_report(c) for c in workload.commands]
    reports[workload.commands.index(defect)].update(wrong)
    checker = run.Checker(workload)
    checker.full(_stdout(reports))
    assert checker.failed == 1 and len(checker.unexpected) == 1
    assert checker.unexpected[0].startswith(defect.text)


def test_report_bytes_that_change_between_runs_fail():
    workload = workloads.generate("points", 0)
    reports = [_passing_report(c) for c in workload.commands]
    checker = run.Checker(workload)
    checker.full(_stdout(reports))
    reports[0]["result"]["extra"] = 1
    checker.full(_stdout(reports))
    assert checker.failed == 1 and "differs" in checker.unexpected[0]


SMALL_SCRIPT = """\
A = Tate(Qp(2, 8), [T]);
B = Quot(A, [u], [u^2 - u - 1]);
classify B;
ZB = Tate(ZZ, []);
I = Quot(ZB, [T], [T^2 - T]);
classify-lifting I mode=crys p=2;
"""


def _traced(tmp_path: Path, hooks: bool) -> tuple:
    """Run SMALL_SCRIPT under the tracer; (reports, aggregated metrics)."""
    script = tmp_path / "small.adk"
    script.write_text(SMALL_SCRIPT)
    spans = tmp_path / f"spans-{hooks}.json"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tracer\n"
            "if sys.argv[4] == '0':\n"
            "    tracer.Recorder.hook_for = lambda *args: None\n"
            "sys.exit(tracer.main(sys.argv[1:4]))")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(Path(tracer.__file__).parent),
         str(spans), str(script), str(int(hooks))],
        cwd=run.ROOT, env=run.child_env(), capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return (json.loads(proc.stdout),
            tracer.aggregate(json.loads(spans.read_text())))


def test_traced_self_times_sum_to_traced_wall_time(tmp_path):
    reports, metrics = _traced(tmp_path, hooks=True)
    assert [r["verdict"] for r in reports] == ["etale", "etale"]
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert metrics["trace.wall_s"] > 0
    assert self_sum == pytest.approx(metrics["trace.wall_s"], abs=1e-6)
    assert metrics["cli.calls"] == 1
    assert metrics["cli.total_s"] == pytest.approx(metrics["trace.wall_s"])
    # differentials and infinitesimal imported these functions by name
    assert metrics["groebner.syzygy_calls"] >= 1
    assert metrics["differentials.cotangent_calls"] == 1
    assert metrics["finiterings.ideals_generated"] >= 1
    assert metrics["infinitesimal.nil_ideals"] >= 1
    assert metrics["finiterings.rings_distinct"] <= \
        metrics["finiterings.rings_built"]
    # what the counter hooks call (element keys) opens no spans
    _, bare = _traced(tmp_path, hooks=False)
    assert bare["finiterings.ideals_generated"] == 0
    for layer in tracer.LAYERS:
        assert bare[f"{layer}.calls"] == metrics[f"{layer}.calls"], layer


def test_aggregate_charges_nested_spans_to_their_own_layer():
    # cli [0, 100) -> poly [10, 40) -> groebner [20, 30); cli -> poly [50, 60)
    dump = {"layers": ["cli", "poly", "groebner"], "counters": {},
            "spans": [[0, 0, 0, 100, -1], [1, 1, 10, 40, 0],
                      [2, 2, 20, 30, 1], [1, 1, 50, 60, 0]]}
    m = tracer.aggregate(dump)
    assert m["cli.self_s"] == pytest.approx(60e-9)
    assert m["poly.self_s"] == pytest.approx(30e-9)
    assert m["groebner.self_s"] == pytest.approx(10e-9)
    assert m["poly.calls"] == 2 and m["poly.total_s"] == pytest.approx(40e-9)
    assert m["trace.wall_s"] == pytest.approx(100e-9)


def test_linalg_cells_count_matrices_fed_from_another_layer():
    recorder = tracer.Recorder()
    calls = [("rank", ([[1, 2, 3]] * 2, 1), False),
             ("span_in_low_block", ([[0] * 5] * 4, [0, 1], 5, 1), False),
             ("RowSpace.insert", (None, [0] * 7), False),
             ("RowSpace.insert", (None, [0] * 7), True)]   # from linalg
    for name, args, nested in calls:
        recorder.hook_for("linalg", name, None)(args, {}, None, nested)
    assert recorder.counts["linalg.cells"] == 2 * 3 + 4 * 5 + 7
