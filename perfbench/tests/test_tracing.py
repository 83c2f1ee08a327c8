"""Self-time arithmetic, the percentile rule, wrapper removal, the sorting of
LP answers into failed ops and wrong ones, and the LP workloads' inputs."""

import pytest

import run
import tracing
from tracing import Span, Tracer, layer_metrics, self_times


def span(sid, name, start, end, parent=None, op=0, work=0, error=None):
    return Span(sid, name, start, end, parent, op, work, error)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(0, "root", 0, 100),
        span(1, "a", 10, 30, parent=0),
        span(2, "b", 20, 50, parent=0),   # overlaps a: [10, 50] counted once
        span(3, "c", 90, 120, parent=0),  # runs past the parent: clipped to [90, 100]
    ]
    assert self_times(spans)[0] == 100 - 40 - 10


def test_self_time_counts_only_direct_children():
    spans = [
        span(0, "root", 0, 100),
        span(1, "child", 10, 60, parent=0),
        span(2, "grandchild", 20, 30, parent=1),
    ]
    assert self_times(spans) == {0: 50, 1: 40, 2: 10}


def test_tracer_records_nesting_errors_and_work():
    tracer = Tracer()
    tracer.op = 7

    def inner(x):
        return [x] * 3

    def outer():
        tracer.call("inner", inner, (1,), {}, lambda a, r: len(r))
        with pytest.raises(ZeroDivisionError):
            tracer.call("boom", lambda: 1 / 0, (), {})
        return "done"

    assert tracer.call("outer", outer, (), {}) == "done"
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].sid
    assert by_name["boom"].parent == by_name["outer"].sid
    assert by_name["inner"].work == 3
    assert by_name["boom"].error == "ZeroDivisionError"
    assert {s.op for s in tracer.spans} == {7}
    selfs = self_times(tracer.spans)
    outer_span = by_name["outer"]
    assert sum(selfs.values()) == outer_span.end - outer_span.start


def test_layer_metrics_average_over_successful_ops():
    spans = [
        span(0, "inverse.assemble", 0, 1_000_000, op=0, work=10),
        span(1, "randstats.cdf", 0, 600_000, parent=0, op=0, work=1),
        span(2, "inverse.solve", 1_000_000, 3_000_000, op=0, work=5),
        span(3, "inverse.assemble", 0, 1_000_000, op=1, work=10),
        span(4, "inverse.solve", 1_000_000, 9_000_000, op=1, error="LpError"),
    ]
    m = layer_metrics(spans, ok_ops={0}, attempted=2)
    assert m["inverse.assemble_ms"] == pytest.approx(1.0)  # includes its cdf calls
    assert m["randstats.cdf_ms"] == pytest.approx(0.6)
    assert m["inverse.solve_ms"] == pytest.approx(2.0)    # the failed solve is left out
    assert m["inverse.rows"] == 10
    assert m["inverse.pivots"] == 5
    assert m["inverse.lp_failures"] == 0.5
    assert m["inverse.solve_ok_ratio"] == 0.5


@pytest.mark.parametrize("n, q, reported", [
    (99, 0.9, False), (100, 0.9, True), (19, 0.5, False), (20, 0.5, True), (0, 0.5, False),
])
def test_percentile_needs_ten_samples_beyond(n, q, reported):
    value = run.percentile(list(range(n)), q)
    assert (value is not None) == reported
    if reported:
        assert sum(x > value for x in range(n)) >= 10


def _is_wrapper(obj):
    return hasattr(obj, "__wrapped__")


def test_wrappers_are_removed_after_the_traced_block():
    import ifsdist.cli as cli
    from ifsdist.randstats import BetaDF

    before = tracing.snapshot()
    beta_eval, cli_main = BetaDF.__dict__["eval"], cli.cli_main
    with tracing.traced(Tracer()):
        assert all(_is_wrapper(obj) for obj in tracing.snapshot())
        assert BetaDF.__dict__["eval"] is not beta_eval
        assert cli.cli_main is not cli_main
    after = tracing.snapshot()
    assert all(a is b for a, b in zip(before, after))
    assert not any(_is_wrapper(obj) for obj in after)
    assert BetaDF.__dict__["eval"] is beta_eval and cli.cli_main is cli_main


def test_wrappers_are_removed_when_the_block_raises():
    before = tracing.snapshot()
    with pytest.raises(RuntimeError):
        with tracing.traced(Tracer()):
            raise RuntimeError("op failed")
    assert all(a is b for a, b in zip(before, tracing.snapshot()))


def test_traced_cli_op_reaches_every_simulate_layer(tmp_path):
    import ifsdist.cli as cli

    tracer = Tracer()
    argv = ["simulate", "--dist", "beta:2,2", "--n", "12", "--trials", "1", "--seed", "3",
            "--exact-sup", "--out", str(tmp_path / "t.csv")]
    with tracing.traced(tracer):
        assert cli.cli_main(argv) == 0
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "sim.run_table", "sim.run_trial", "randstats.sample_beta",
            "constructions.estimator", "ifs.breakpoints", "ifs.eval", "ifs.validate",
            "distfn.sup", "distfn.edf", "randstats.cdf"} <= names
    assert [s.name for s in tracer.spans if s.parent is None] == ["cli.main"]


def _small_problem():
    import numpy as np
    from ifsdist import AffineMap, BetaDF, BetaParams, CollageProblem, solve_inverse

    cuts = np.linspace(0.0, 1.0, 9)
    maps = [AffineMap.identity(cuts[i], cuts[i + 1]) for i in range(8)]
    problem = CollageProblem(BetaDF(BetaParams(2.0, 3.0)), maps, np.zeros(7))
    return problem, solve_inverse(problem)


def test_lp_misses_fail_the_op_and_larger_errors_make_the_run_wrong():
    import checks

    problem, sol = _small_problem()
    oracle = checks.oracle_available()
    assert checks.check_solution(problem, sol.p_star, sol.d_star, oracle) == ([], [])

    misses, errors = checks.check_solution(problem, sol.p_star, sol.d_star + 5e-7, oracle)
    assert misses and not errors                      # rounding: a failed op

    misses, errors = checks.check_solution(problem, sol.p_star, sol.d_star + 1e-3, oracle)
    assert errors                                     # a wrong answer

    off = sol.p_star * 1.01
    misses, errors = checks.check_solution(problem, off, sol.d_star, oracle)
    assert misses == [checks._off_simplex(off, problem.weight_sum)] and not errors


def test_a_feasible_but_suboptimal_answer_is_wrong():
    import numpy as np

    import checks
    from ifsdist import collage_distance

    if not checks.oracle_available():
        pytest.skip("scipy is missing: no HiGHS oracle")
    problem, sol = _small_problem()
    uniform = np.full(problem.k, problem.weight_sum / problem.k)
    d_uniform = collage_distance(problem, uniform)
    assert d_uniform > sol.d_star + 1e-3
    misses, errors = checks.check_solution(problem, uniform, d_uniform, True)
    assert any("HiGHS" in e for e in errors)


@pytest.mark.parametrize("workload", ["invert_exact", "collage_grid"])
def test_every_lp_input_solves_and_passes_its_checks(workload, tmp_path):
    import checks
    import workloads
    from ifsdist import solve_inverse

    oracle = checks.oracle_available()
    for op in workloads.make_manifest(workload, 0, tmp_path)["inputs"]:
        if workload == "invert_exact":
            problem = checks._invert_problem(op)
        else:
            problem = workloads.collage_problem(op, workloads.collage_maps(op))
        sol = solve_inverse(problem)
        assert checks.check_solution(problem, sol.p_star, sol.d_star, oracle) == ([], []), op
