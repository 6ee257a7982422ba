"""Static SVG plots of accuracy-vs-round curves from result CSVs.

One SVG per downstream task, titled by the k of its rows (all of them,
comma-separated, when the CSVs differ); one polyline per cell, that is per
results.csv, labelled by its directory under the plotted root (``.`` for a
CSV at the root, a label no cell directory has). ``orchestrator.read_results_csv``
reads and checks the rows; this module only draws them. Output is plain XML
built with ElementTree, with no scripting or interactivity.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path

from .errors import ContractError
from .orchestrator import RESULTS_CSV, read_results_csv

WIDTH, HEIGHT = 640, 400
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 60, 170, 20, 40

PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]


def collect_series(runs: list[tuple[str, list[dict]]]) -> dict[str, dict[str, list[tuple[int, float]]]]:
    """task -> series label -> [(round, accuracy)] sorted by round, from (label, ``read_results_csv`` rows) pairs."""
    series: dict[str, dict[str, list[tuple[int, float]]]] = {}
    for label, rows in runs:
        for row in rows:
            series.setdefault(row["task"], {}).setdefault(label, []).append((row["round"], row["accuracy"]))
    for by_label in series.values():
        for pts in by_label.values():
            pts.sort()
    return series


def _svg_for_task(task: str, ks: list[int], by_label: dict[str, list[tuple[int, float]]]) -> ET.Element:
    max_round = max(r for pts in by_label.values() for r, _ in pts)
    svg = ET.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        width=str(WIDTH),
        height=str(HEIGHT),
        viewBox=f"0 0 {WIDTH} {HEIGHT}",
    )
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def x(r: int) -> float:
        return MARGIN_L + plot_w * (r / max(max_round, 1))

    def y(acc: float) -> float:
        return MARGIN_T + plot_h * (1.0 - acc)

    ET.SubElement(
        svg, "rect", x=str(MARGIN_L), y=str(MARGIN_T),
        width=str(plot_w), height=str(plot_h), fill="white", stroke="#333",
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        gy = y(frac)
        ET.SubElement(
            svg, "line", x1=str(MARGIN_L), x2=str(MARGIN_L + plot_w),
            y1=f"{gy:.1f}", y2=f"{gy:.1f}", stroke="#ddd",
        )
        tick = ET.SubElement(
            svg, "text", x=str(MARGIN_L - 8), y=f"{gy + 4:.1f}",
            fill="#333", **{"text-anchor": "end", "font-size": "12"},
        )
        tick.text = f"{frac:.2f}"
    title = ET.SubElement(
        svg, "text", x=str(MARGIN_L), y=str(MARGIN_T - 6),
        fill="#000", **{"font-size": "14"},
    )
    title.text = f"top-{','.join(map(str, ks))} retrieval vs round: {task}"
    xlabel = ET.SubElement(
        svg, "text", x=str(MARGIN_L + plot_w // 2), y=str(HEIGHT - 10),
        fill="#333", **{"text-anchor": "middle", "font-size": "12"},
    )
    xlabel.text = "round"

    for i, (label, pts) in enumerate(sorted(by_label.items())):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{x(r):.1f},{y(a):.1f}" for r, a in pts)
        ET.SubElement(
            svg, "polyline", points=coords, fill="none", stroke=color,
            **{"stroke-width": "1.5"},
        )
        ly = MARGIN_T + 14 + 16 * i
        ET.SubElement(
            svg, "line", x1=str(WIDTH - MARGIN_R + 8), x2=str(WIDTH - MARGIN_R + 28),
            y1=str(ly - 4), y2=str(ly - 4), stroke=color, **{"stroke-width": "1.5"},
        )
        legend = ET.SubElement(
            svg, "text", x=str(WIDTH - MARGIN_R + 32), y=str(ly),
            fill="#333", **{"font-size": "11"},
        )
        legend.text = label
    return svg


def plot_results(results_dir: str | Path) -> list[Path]:
    """One SVG per task, written into results_dir, from every results.csv found under it; some CSV must hold a row."""
    root = Path(results_dir)
    csvs = sorted(root.rglob(RESULTS_CSV))
    if not csvs:
        raise ContractError(f"no {RESULTS_CSV} found under {root}")
    runs = [(path.parent.relative_to(root).as_posix(), read_results_csv(path)) for path in csvs]  # "." at the root
    series = collect_series(runs)
    if not series:  # every cell failed before its first row; an earlier plot's SVGs must not pass for this one's
        raise ContractError(f"no {RESULTS_CSV} under {root} holds a row")
    written = []
    for task, by_label in sorted(series.items()):
        svg = _svg_for_task(task, sorted({r["k"] for _, rows in runs for r in rows if r["task"] == task}), by_label)
        path = root / f"task_{task}.svg"
        path.write_bytes(ET.tostring(svg, xml_declaration=True, encoding="utf-8"))
        written.append(path)
    return written
