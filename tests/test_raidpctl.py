"""Tests for the raidpctl command-line tool."""

import pytest

from repro.tools.raidpctl import main


def test_layout_command(capsys):
    assert main(["layout", "--nodes", "5"]) == 0
    out = capsys.readouterr().out
    assert "5 disks" in out
    assert "1-sharing and 1-mirroring verified" in out


def test_layout_multi_disk(capsys):
    assert main(["layout", "--nodes", "4", "--disks-per-node", "2", "--per-disk", "3"]) == 0
    out = capsys.readouterr().out
    assert "8 disks" in out


def test_bench_command(capsys):
    assert main(["bench", "--system", "hdfs3", "--nodes", "6", "--data", "512MiB"]) == 0
    out = capsys.readouterr().out
    assert "dfsio-write" in out
    assert "throughput" in out


def test_bench_all_systems(capsys):
    for system in ("raidp", "raidp-rewrite", "hdfs2"):
        assert main(["bench", "--system", system, "--nodes", "6", "--data", "256MiB"]) == 0
    assert "MB/s" in capsys.readouterr().out


def test_drill_single(capsys):
    assert main(["drill", "--nodes", "8"]) == 0
    assert "drill passed" in capsys.readouterr().out


def test_drill_double(capsys):
    assert main(["drill", "--nodes", "8", "--double"]) == 0
    out = capsys.readouterr().out
    assert "reconstructed superchunk" in out
    assert "drill passed" in out


def test_tco_command(capsys):
    assert main(["tco", "--disk-cost", "100", "--server-cost", "10000", "--disks", "12"]) == 0
    out = capsys.readouterr().out
    assert "TCO savings" in out


def test_experiments_passthrough(capsys):
    assert main(["experiments", "fig1"]) == 0
    assert "design space" in capsys.readouterr().out


def test_trace_command_summarizes_a_recorded_drill(tmp_path, capsys):
    """Record a drill under a capture(), export, and summarize via CLI."""
    from repro.obs.export import write_trace
    from repro.obs.tracer import capture

    path = str(tmp_path / "drill.json")
    with capture() as tracer:
        assert main(["drill", "--nodes", "8", "--double"]) == 0
    write_trace(tracer, path)
    capsys.readouterr()
    assert main(["trace", path]) == 0
    out = capsys.readouterr().out
    assert "recovery run=0 dead=['n0', 'n1']" in out
    assert "reconstruct" in out
    assert "coverage" in out


def test_trace_command_category_filter(tmp_path, capsys):
    from repro.obs.export import write_trace
    from repro.obs.tracer import Tracer

    tracer = Tracer()
    tracer.register_run("t")
    tracer.complete("disk", "read", 0.0, 1.0)
    tracer.complete("net", "flow", 0.0, 2.0)
    path = str(tmp_path / "t.jsonl")
    write_trace(tracer, path)
    assert main(["trace", path, "--category", "net"]) == 0
    out = capsys.readouterr().out
    assert "net.flow" in out
    assert "disk.read" not in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
