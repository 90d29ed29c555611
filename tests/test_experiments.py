"""Smoke tests for the experiment registry and the analytic regenerators.

The heavyweight simulation experiments (fig8/fig9/fig10/table2) are
exercised with full shape assertions by the benchmark harness under
``benchmarks/`` (``make shapes``, a prerequisite of ``make verify``);
here we cover the registry plumbing and the fast analytic experiments,
plus one reduced-seed simulation run.
"""

import pytest

from repro.experiments.runner import (
    REGISTRY,
    ExperimentResult,
    list_experiments,
    main,
    run_experiment,
)


def test_registry_covers_every_table_and_figure():
    assert set(list_experiments()) == {
        "fig1",
        "table1",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "table2",
        "ext-durability",
        "ext-updates",
        "ext-ssd",
        "ext-scale",
    }


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError):
        run_experiment("fig99")


def test_analytic_experiments_run():
    for name in ("fig1", "table1", "fig7"):
        result = run_experiment(name)
        assert isinstance(result, ExperimentResult)
        assert result.rows
        assert name in result.render()


def test_result_render_includes_paper_column():
    result = ExperimentResult(experiment="x", title="t")
    result.add("with paper", 1.5, 2.0)
    result.add("without paper", 3.0)
    text = result.render()
    assert "2.00" in text
    assert "1.50" in text
    assert "-" in text


def test_cli_lists_registry(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "fig8" in out
    assert "table2" in out


def test_cli_runs_an_experiment(capsys):
    assert main(["fig1"]) == 0
    out = capsys.readouterr().out
    assert "design space" in out


def test_fig8_runs_at_reduced_scale():
    result = run_experiment("fig8", seeds=(1,))
    rows = {label: value for label, value, _ in result.rows}
    # Core shape even with a single seed.
    assert rows["raidp opt: only superchunks"] < 1.0
    assert rows["raidp unopt: +journal"] > 5.0


def test_ext_durability_rungs_share_the_five_schemes():
    """Both rungs read ``default_schemes()``: every row names one of the
    five, each rung lists all five, and the §2 trade shows in the MC rows."""
    from repro.analysis.scheme import default_schemes
    from repro.experiments import ext_durability

    keys = ext_durability.tasks()
    assert len(keys) == 5 and {key[0] for key in keys} == {"analytic", "mc"}
    result = run_experiment("ext-durability", jobs=1)
    rows = {label: value for label, value, _ in result.rows}
    names = [scheme.name for scheme in default_schemes()]
    by_rung = {}
    for label in rows:
        rung, _, rest = label.partition(" [")
        by_rung.setdefault(rung, []).append(rest.split("]")[0])
    assert set(by_rung) == {
        "analytic MTTDL",
        "MC nines",
        "MC availability nines",
        "MC repair GB/day",
        "MC peak groups at-risk",
    }
    for rung, listed in by_rung.items():
        assert listed == names, rung
    assert rows["MC nines [rep2]"] < rows["MC nines [raidp]"] < rows["MC nines [rep3]"]
    assert (
        rows["MC availability nines [raidp]"] < rows["MC availability nines [rep3]"]
    )
