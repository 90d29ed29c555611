"""Size, time, and bandwidth units used throughout the RAIDP reproduction.

All byte quantities in the code base are plain integers counted in bytes;
all simulated time quantities are floats counted in seconds; all bandwidth
quantities are floats counted in bytes per second.  This module centralizes
the conversion constants and the small amount of parsing/formatting helpers
so that call sites can say ``6 * units.GiB`` or ``units.parse_size("64MB")``
instead of sprinkling magic numbers.
"""

from __future__ import annotations

import re

# Binary (IEC) sizes -- used for device and block geometry, matching how
# HDFS configures block sizes (64MB block == 64 * 2**20 bytes).
KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB
TiB = 1024 * GiB

# Decimal (SI) sizes -- used for marketing-style disk capacities ("2TB
# disk") and network rates ("10Gbps NIC"), matching vendor conventions.
KB = 1000
MB = 1000 * KB
GB = 1000 * MB
TB = 1000 * GB

# Time.
USEC = 1e-6
MSEC = 1e-3
SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0

# The durability models (``faults.py``'s fleet statistics and
# ``analysis/``) count time in hours and quote rates per year.
HOURS_PER_YEAR = 24 * 365.0

# Network rates in bytes/second.  NIC line rates are conventionally quoted
# in bits per second.
def gbps(gigabits: float) -> float:
    """Convert a line rate in gigabits/second to bytes/second."""
    return gigabits * 1e9 / 8.0


_SIZE_SUFFIXES = {
    "b": 1,
    "kb": KB,
    "mb": MB,
    "gb": GB,
    "tb": TB,
    "kib": KiB,
    "mib": MiB,
    "gib": GiB,
    "tib": TiB,
    # Bare single letters follow the HDFS convention of binary units.
    "k": KiB,
    "m": MiB,
    "g": GiB,
    "t": TiB,
}

_SIZE_RE = re.compile(r"^\s*([0-9]+(?:\.[0-9]+)?)\s*([a-zA-Z]*)\s*$")


def parse_size(text: str) -> int:
    """Parse a human-readable size like ``"64MB"`` or ``"6GiB"`` to bytes.

    Bare-letter suffixes (``64M``) follow the HDFS convention and are
    binary.  Raises ``ValueError`` on malformed input.
    """
    match = _SIZE_RE.match(text)
    if match is None:
        raise ValueError(f"unparseable size: {text!r}")
    value, suffix = match.groups()
    suffix = suffix.lower() or "b"
    if suffix not in _SIZE_SUFFIXES:
        raise ValueError(f"unknown size suffix in {text!r}")
    result = float(value) * _SIZE_SUFFIXES[suffix]
    if result != int(result):
        raise ValueError(f"size {text!r} is not a whole number of bytes")
    return int(result)


def format_size(num_bytes: int) -> str:
    """Render a byte count with a binary suffix, e.g. ``"64.0MiB"``."""
    value = float(num_bytes)
    for suffix in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or suffix == "TiB":
            if suffix == "B":
                return f"{int(value)}B"
            return f"{value:.1f}{suffix}"
        value /= 1024.0
    raise AssertionError("unreachable")


def format_duration(seconds: float) -> str:
    """Render a duration compactly, e.g. ``"2m 05s"`` or ``"830ms"``."""
    if seconds < 0:
        return "-" + format_duration(-seconds)
    if seconds < 1.0:
        return f"{seconds * 1000:.0f}ms"
    if seconds < MINUTE:
        return f"{seconds:.2f}s"
    if seconds < HOUR:
        minutes, secs = divmod(seconds, MINUTE)
        return f"{int(minutes)}m {secs:04.1f}s"
    hours, rem = divmod(seconds, HOUR)
    minutes = rem / MINUTE
    return f"{int(hours)}h {minutes:.0f}m"
