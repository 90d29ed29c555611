"""Unit tests for size/time/bandwidth helpers."""

import pytest

from repro import units


def test_binary_and_decimal_sizes():
    assert units.KiB == 1024
    assert units.MiB == 1024**2
    assert units.GB == 10**9
    assert units.TB == 10**12


def test_gbps_conversion():
    assert units.gbps(10) == pytest.approx(1.25e9)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("64MB", 64 * units.MB),
        ("64MiB", 64 * units.MiB),
        ("64M", 64 * units.MiB),  # bare letters follow HDFS convention
        ("6GiB", 6 * units.GiB),
        ("2TB", 2 * units.TB),
        ("128", 128),
        ("1.5KiB", 1536),
    ],
)
def test_parse_size(text, expected):
    assert units.parse_size(text) == expected


@pytest.mark.parametrize("text", ["", "MB", "12XB", "1.0001KiB", "-5MB"])
def test_parse_size_rejects_garbage(text):
    with pytest.raises(ValueError):
        units.parse_size(text)


def test_format_size():
    assert units.format_size(512) == "512B"
    assert units.format_size(64 * units.MiB) == "64.0MiB"
    assert units.format_size(3 * units.TiB) == "3.0TiB"


def test_format_duration():
    assert units.format_duration(0.05) == "50ms"
    assert units.format_duration(2.5) == "2.50s"
    assert "2m" in units.format_duration(125)
    assert "h" in units.format_duration(7200)
    assert units.format_duration(-2.5).startswith("-")
