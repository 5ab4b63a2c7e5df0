"""ASCII rendering of tables and bar charts.

The paper reports its results as one table (Table 1) and four figures (bar
charts and stream plots).  Since the reproduction environment has no plotting
stack, the analysis layer renders every table/figure as plain text, which is
what the benchmark harness writes to ``benchmarks/results/``.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

__all__ = ["ascii_table", "ascii_bar_chart", "format_float", "wrap_title"]


def format_float(value: float, digits: int = 1) -> str:
    """Format a float with a fixed number of digits, trimming '-0.0'."""
    text = f"{value:.{digits}f}"
    if text == f"-0.{'0' * digits}":
        text = f"0.{'0' * digits}"
    return text


def wrap_title(title: str, width: int = 72, char: str = "=") -> str:
    """Return a title line followed by an underline of the same length."""
    line = title.strip()
    return f"{line}\n{char * min(max(len(line), 8), width)}"


def ascii_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render a list of rows as a fixed-width ASCII table.

    Parameters
    ----------
    headers:
        Column names.
    rows:
        Iterable of rows; each row must have ``len(headers)`` entries.  Floats
        are formatted with one decimal, everything else with ``str``.
    title:
        Optional title printed above the table.

    Returns
    -------
    str
        The rendered table (no trailing newline).
    """
    headers = [str(h) for h in headers]
    rendered_rows: list[list[str]] = []
    for row in rows:
        row = list(row)
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns: {row!r}"
            )
        rendered_rows.append(
            [format_float(c) if isinstance(c, float) else str(c) for c in row]
        )

    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    sep = "-+-".join("-" * w for w in widths)
    out: list[str] = []
    if title:
        out.append(wrap_title(title))
    out.append(line(headers))
    out.append(sep)
    out.extend(line(row) for row in rendered_rows)
    return "\n".join(out)


def ascii_bar_chart(
    values: Mapping[str, float],
    max_value: float | None = None,
    width: int = 50,
    unit: str = "%",
    title: str | None = None,
) -> str:
    """Render a horizontal bar chart (used for the Figure 3/4 accuracy plots).

    Parameters
    ----------
    values:
        Mapping of label -> value.  Iteration order is preserved.
    max_value:
        Value corresponding to a full-width bar.  Defaults to the maximum of
        the data (or 100.0 when the unit is ``%``).
    width:
        Width of a full bar, in characters.
    unit:
        Unit suffix printed after each value.
    title:
        Optional title printed above the chart.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    if max_value is None:
        max_value = 100.0 if unit == "%" else max(values.values(), default=1.0)
    if max_value <= 0:
        max_value = 1.0

    label_width = max((len(str(label)) for label in values), default=0)
    out: list[str] = []
    if title:
        out.append(wrap_title(title, char="-"))
    for label, value in values.items():
        filled = int(round(width * min(max(value, 0.0), max_value) / max_value))
        bar = "#" * filled
        out.append(f"{str(label).ljust(label_width)} | {bar.ljust(width)} {format_float(value)}{unit}")
    return "\n".join(out)
