"""ASCII chart rendering for the figure reproductions.

The paper's Figures 6 and 7 are log-scale line plots. A terminal
reproduction renders each (series, x) cell as a horizontal bar on a log
scale, which makes order-of-magnitude gaps between algorithms visible
at a glance. ``OOT``/``OOM`` markers render as labels instead of bars.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Sequence


def _bar(value: float, lo: float, hi: float, width: int) -> str:
    if hi <= lo:
        return "#"
    fraction = (math.log10(value) - math.log10(lo)) / (
        math.log10(hi) - math.log10(lo)
    )
    return "#" * max(1, round(fraction * width))


def ascii_log_chart(
    title: str,
    x_label: str,
    x_values: Sequence[Any],
    series: Mapping[str, Sequence[Any]],
    unit: str = "s",
    width: int = 36,
) -> str:
    """Render series of positive values as log-scale ASCII bars.

    ``series`` maps a name to one value per x; values may be numbers or
    marker strings (``"OOT"``, ``"OOM"``, ``"-"``) which render as-is.
    """
    numeric = [
        v
        # Only min/max consume this list: order-insensitive.
        for values in series.values()  # repro-lint: ignore=iterorder
        for v in values
        if isinstance(v, (int, float)) and v > 0
    ]
    lo = min(numeric) if numeric else 1.0
    hi = max(numeric) if numeric else 1.0
    lines = [f"== {title} (log scale, {unit}) =="]
    name_width = max((len(name) for name in series), default=4)
    for name, values in series.items():
        for x, value in zip(x_values, values):
            label = f"{name:<{name_width}} {x_label}={x!s:<4}"
            if isinstance(value, (int, float)) and value > 0:
                bar = _bar(float(value), lo, hi, width)
                lines.append(f"{label} |{bar:<{width}}| {value:.4g}{unit}")
            elif isinstance(value, (int, float)):
                lines.append(f"{label} |{'':<{width}}| {value:.4g}{unit}")
            else:
                lines.append(f"{label} |{'':<{width}}| {value}")
        lines.append("")
    return "\n".join(lines).rstrip()
