"""Self-time arithmetic, import-time parsing and span wrapping of the benchmark."""

import pytest

import bench_trace as bt


def span(name, start, end, parent=None):
    return bt.Span(name, start, end, parent, "w")


def test_covered_length_merges_overlaps_and_gaps():
    assert bt.covered_length([]) == 0.0
    assert bt.covered_length([(1.0, 4.0), (3.0, 5.0), (7.0, 8.0)]) == pytest.approx(5.0)
    assert bt.covered_length([(2.0, 3.0), (1.0, 6.0)]) == pytest.approx(5.0)


def test_self_time_subtracts_only_direct_children():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("cli.cmd_simulate", 1.0, 4.0, parent=0),
        span("powersim.simulate", 2.0, 3.0, parent=1),
        span("config.load_run_config", 5.0, 6.0, parent=0),
    ]
    assert bt.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_clamps_children_that_escape_their_parent():
    spans = [span("cli.main", 0.0, 2.0), span("cli.cmd_simulate", 1.0, 3.0, parent=0)]
    assert bt.self_times(spans) == pytest.approx([1.0, 2.0])


def test_layer_metrics_account_for_the_root():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("cli.cmd_simulate", 1.0, 9.0, parent=0),
        span("wavio.read_wav", 1.5, 2.5, parent=1),
        span("frontend.envelope_detect", 3.0, 7.0, parent=1),
    ]
    spans[2].count = 480
    spans[3].count = 480
    m = bt.layer_metrics(spans)
    assert m["cli.main_s"] == pytest.approx(10.0)
    assert m["cli.main_self_s"] == pytest.approx(2.0)
    assert m["cli.cmd_self_s"] == pytest.approx(3.0)
    assert m["frontend.envelope_detect_s"] == pytest.approx(4.0)
    assert m["wavio.samples_decoded"] == 480
    assert m["powersim.wake_runs"] == 0
    assert bt.unaccounted_s(m) == pytest.approx(0.0, abs=1e-12)


def test_parse_importtime_reads_levels_and_scipy_modules():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | _io",
        "import time:      1000 |      50000 |       numpy",
        "import time:       200 |      30000 |         scipy",
        "import time:       300 |      20000 |       scipy.signal",
        "import time:       400 |     900000 |   wakenode",
        "import time:      5000 |    1000000 | wakenode.cli",
    ])
    m = bt.parse_importtime(text)
    assert m["startup.import_s"] == pytest.approx(1.0)
    assert m["startup.numpy_import_s"] == pytest.approx(0.05)
    assert m["startup.scipy_import_s"] == pytest.approx(0.0005)
    assert m["startup.scipy_signal_import_s"] == pytest.approx(0.02)
    assert m["startup.scipy_optimize_import_s"] == 0.0


def test_patched_records_nested_spans_and_restores_functions(tmp_path, capsys):
    import wakenode.cli as cli

    originals = (cli.main, cli.simulate)
    tracer = bt.Tracer("light-commands")
    with bt.patched(tracer):
        assert cli.main(["--out-dir", str(tmp_path), "simulate", "--scenario", "urban"]) == 0
    assert (cli.main, cli.simulate) == originals
    names = [s.name for s in tracer.spans]
    assert names == ["cli.main", "cli.cmd_simulate", "powersim.simulate"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1]
    assert bt.unaccounted_s(bt.layer_metrics(tracer.spans)) == pytest.approx(0.0, abs=1e-9)
