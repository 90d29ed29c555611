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
    assert "flight recorder" not in out and "verdict" not in out


@pytest.mark.parametrize("ok", [True, False])
def test_trace_command_draws_the_flight_recorder_and_its_verdict(tmp_path, capsys, ok):
    """Telemetry counter tracks get one sparkline per key track, the
    metadata verdict is printed, and a failed verdict exits 1."""
    from repro.obs.export import write_trace
    from repro.obs.tracer import Tracer

    tracer = Tracer()
    tracer.register_run("soak")
    for tick in range(1, 5):
        tracer.count("telemetry", "blocks_at_risk", 0.5 * tick, float(tick % 3))
        tracer.count("telemetry", "disk_reads{disk=n0.d0}", 0.5 * tick, 1.0)
    audit = {"audits": 5, "checks": 20, "violations": 1, "unwaived": 0, "records": []}
    tracer.metadata.update(seed=7, runs=1, ok=ok, problems=[] if ok else ["lost"],
                           audit=audit)
    path = str(tmp_path / "soak.json")
    write_trace(tracer, path)
    assert main(["trace", path]) == (0 if ok else 1)
    out = capsys.readouterr().out
    section = out.split("flight recorder run=0: 2 tracks x 4 ticks\n", 1)[1]
    assert "blocks_at_risk" in section and "▁" in section and "█" in section
    assert "disk_reads" not in section  # key tracks only
    assert f"verdict: {'PASS' if ok else 'FAIL'} seed=7 runs=1" in out
    assert "audit: 20 checks / 5 audits, 1 violations (1 waived, 0 unwaived)" in out
    assert ("PROBLEM: lost" in out) is not ok


def test_trace_command_places_tracks_on_one_time_axis(tmp_path, capsys):
    """A track that stops sampling halfway ends halfway: its cells past
    its last sample are blank, not a shorter, denser line."""
    from repro.obs.export import write_trace
    from repro.obs.tracer import Tracer

    tracer = Tracer()
    tracer.register_run("soak")
    for tick in range(1, 9):
        tracer.count("telemetry", "blocks_at_risk", 0.5 * tick, float(tick))
        if tick <= 4:
            tracer.count("telemetry", "net_active_flows", 0.5 * tick, float(tick))
    path = str(tmp_path / "soak.json")
    write_trace(tracer, path)
    assert main(["trace", path]) == 0
    out = capsys.readouterr().out
    assert "flight recorder run=0: 2 tracks x 8 ticks" in out
    assert "  blocks_at_risk       ▁▂▃▄▅▆▇█  min 1  max 8\n" in out
    assert "  net_active_flows     ▁▃▆█      min 1  max 4\n" in out


def test_trace_command_category_filter(tmp_path, capsys):
    from repro.obs.export import write_trace
    from repro.obs.tracer import Tracer

    tracer = Tracer()
    tracer.register_run("t")
    tracer.complete("disk", "read", 0.0, 1.0)
    tracer.complete("net", "flow", 0.0, 2.0)
    path = str(tmp_path / "t.json")
    write_trace(tracer, path)
    assert main(["trace", path, "--category", "net"]) == 0
    out = capsys.readouterr().out
    assert "net.flow" in out
    assert "disk.read" not in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
