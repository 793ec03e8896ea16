"""Self-contained run reports and cross-run trend tables.

``repro report`` renders two kinds of document, as markdown or as a
single-file HTML page (no external assets — it attaches to a CI
artifact or an email as-is):

* a **run report** for one trace (or flight dump): verdict header,
  the hierarchical span tree, reduction/POR effectiveness, and every
  recovery/forensic event the trace carries;
* **trend tables** from the ``BENCH_verification.json`` trajectory.

Everything here is a pure function of already-validated inputs —
malformed traces raise before rendering starts, which the CLI maps to
exit code 2.
"""

from __future__ import annotations

import html as _html
import json
from pathlib import Path
from typing import List, Optional, Sequence, Union

from .bench import RunSummary, summarize_trace
from .metrics import format_span_tree
from .trace import read_trace

__all__ = [
    "Section",
    "run_report_sections",
    "trend_sections",
    "render_markdown",
    "render_html",
    "render_report",
]

#: forensic / lifecycle events surfaced verbatim in the run report
_NOTABLE_EVENTS = (
    "recovered",
    "checkpoint_saved",
    "degrade_stage",
    "fault_activated",
    "violation_found",
)


class Section:
    """One report section: a title plus a table and/or preformatted
    text (the renderers turn it into markdown or HTML)."""

    def __init__(
        self,
        title: str,
        *,
        headers: Optional[Sequence[str]] = None,
        rows: Optional[Sequence[Sequence[object]]] = None,
        text: Optional[str] = None,
        prose: Optional[str] = None,
    ) -> None:
        self.title = title
        self.headers = list(headers) if headers is not None else None
        self.rows = [list(r) for r in rows] if rows is not None else None
        self.text = text
        self.prose = prose


def _fmt(v: object) -> str:
    if v is None:
        return "—"
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


# ----------------------------------------------------------------------
# run report
# ----------------------------------------------------------------------


def run_report_sections(events: List[dict]) -> List[Section]:
    """Sections for one run's validated trace events."""
    summary: RunSummary = summarize_trace(events)
    sections: List[Section] = []

    head_rows = [
        ("protocol", summary.protocol or "(unknown)"),
        ("verdict", summary.verdict),
        ("complete", summary.complete),
        ("states", summary.states),
        ("elapsed", f"{summary.elapsed_s:.3f}s"),
        (
            "throughput",
            f"{summary.states_per_sec:.0f} states/s"
            if summary.states_per_sec is not None
            else None,
        ),
        ("reduce", summary.reduce),
        ("por", summary.por),
        ("trace events", summary.events),
    ]
    sections.append(Section("Run", headers=["field", "value"], rows=head_rows))

    if summary.has_snapshot and summary.snapshot.timers:
        sections.append(
            Section(
                "Span tree",
                text=format_span_tree(summary.snapshot.timers),
                prose=(
                    "Hierarchical profiler spans: `total` includes children, "
                    "`self` is the span's own time (subtree self times sum "
                    "to the root total)."
                ),
            )
        )

    gauges = summary.snapshot.gauges if summary.has_snapshot else {}
    eff_rows = []
    if any(k.startswith("reduction.") for k in gauges):
        red_states = gauges.get("reduction.states", 0)
        hits = gauges.get("reduction.orbit_hits", 0)
        eff_rows.append(("reduction: canonicalizations", red_states))
        eff_rows.append(("reduction: orbit hits", hits))
        if red_states:
            eff_rows.append(("reduction: hit rate", f"{100.0 * hits / red_states:.1f}%"))
        eff_rows.append(("reduction: canon time", f"{gauges.get('reduction.canon_s', 0)}s"))
    if any(k.startswith("por.") for k in gauges):
        ample = gauges.get("por.ample_hits", 0)
        eff_rows.append(("por: ample expansions", ample))
        eff_rows.append(("por: steps deferred", gauges.get("por.deferred", 0)))
        eff_rows.append(("por: full-expansion fallbacks", gauges.get("por.fallbacks", 0)))
    if eff_rows:
        sections.append(
            Section(
                "Reduction / POR effectiveness",
                headers=["metric", "value"],
                rows=eff_rows,
            )
        )

    notable = [e for e in events if e["ev"] in _NOTABLE_EVENTS]
    if notable:
        rows = [
            (
                e["seq"],
                e["ev"],
                ", ".join(
                    f"{k}={_fmt(v)}"
                    for k, v in sorted(e.items())
                    if k not in ("ev", "ts", "seq")
                ),
            )
            for e in notable
        ]
        sections.append(
            Section(
                "Recovery & forensic events",
                headers=["seq", "event", "detail"],
                rows=rows,
            )
        )

    return sections


# ----------------------------------------------------------------------
# benchmark trends
# ----------------------------------------------------------------------


def trend_sections(bench_record: dict) -> List[Section]:
    """The benchmark record's current workloads as a table."""
    current = bench_record.get("current", {}).get("workloads", {})
    if not current:
        return []
    rows = [
        (
            name,
            w.get("states"),
            f"{w.get('seconds', 0):.3g}s",
            f"{w['states'] / w['seconds']:.0f}" if w.get("seconds") else "—",
        )
        for name, w in sorted(current.items())
    ]
    return [
        Section(
            "Benchmark workloads (current)",
            headers=["workload", "states", "seconds", "states/s"],
            rows=rows,
        )
    ]


# ----------------------------------------------------------------------
# renderers
# ----------------------------------------------------------------------


def render_markdown(title: str, sections: List[Section]) -> str:
    out: List[str] = [f"# {title}", ""]
    for s in sections:
        out.append(f"## {s.title}")
        out.append("")
        if s.prose:
            out.append(s.prose)
            out.append("")
        if s.headers is not None and s.rows is not None:
            out.append("| " + " | ".join(s.headers) + " |")
            out.append("|" + "|".join(" --- " for _ in s.headers) + "|")
            for row in s.rows:
                out.append("| " + " | ".join(_fmt(v) for v in row) + " |")
            out.append("")
        if s.text:
            out.append("```")
            out.append(s.text)
            out.append("```")
            out.append("")
    return "\n".join(out).rstrip() + "\n"


_HTML_STYLE = """
body { font: 14px/1.5 -apple-system, 'Segoe UI', Roboto, sans-serif;
       max-width: 60rem; margin: 2rem auto; padding: 0 1rem; color: #1a1a2e; }
h1 { border-bottom: 2px solid #4a4e69; padding-bottom: .3rem; }
h2 { color: #4a4e69; margin-top: 2rem; }
table { border-collapse: collapse; margin: .5rem 0; }
th, td { border: 1px solid #c9cbd8; padding: .25rem .6rem; text-align: left; }
th { background: #f2f3f7; }
pre { background: #f7f7fa; border: 1px solid #e1e2ea; padding: .7rem;
      overflow-x: auto; }
p.prose { color: #555; font-style: italic; }
"""


def render_html(title: str, sections: List[Section]) -> str:
    esc = _html.escape
    out: List[str] = [
        "<!DOCTYPE html>",
        "<html><head><meta charset=\"utf-8\">",
        f"<title>{esc(title)}</title>",
        f"<style>{_HTML_STYLE}</style>",
        "</head><body>",
        f"<h1>{esc(title)}</h1>",
    ]
    for s in sections:
        out.append(f"<h2>{esc(s.title)}</h2>")
        if s.prose:
            out.append(f"<p class=\"prose\">{esc(s.prose)}</p>")
        if s.headers is not None and s.rows is not None:
            out.append("<table><thead><tr>")
            out.extend(f"<th>{esc(h)}</th>" for h in s.headers)
            out.append("</tr></thead><tbody>")
            for row in s.rows:
                out.append(
                    "<tr>" + "".join(f"<td>{esc(_fmt(v))}</td>" for v in row) + "</tr>"
                )
            out.append("</tbody></table>")
        if s.text:
            out.append(f"<pre>{esc(s.text)}</pre>")
    out.append("</body></html>")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# orchestration
# ----------------------------------------------------------------------


def render_report(
    *,
    trace_path: Optional[str] = None,
    bench_path: Optional[Union[str, Path]] = None,
    fmt: str = "md",
    title: Optional[str] = None,
) -> str:
    """Build a report from whichever sources are given.

    ``trace_path`` contributes the single-run sections (torn final
    lines are tolerated — a flight dump or crashed trace still
    renders); ``bench_path`` contributes the trend sections.  ``fmt`` is ``"md"`` or ``"html"``.
    """
    sections: List[Section] = []
    if title is None:
        title = "Verification run report" if trace_path else "Verification trends"
    if trace_path is not None:
        events = read_trace(trace_path, allow_torn_tail=True)
        sections.extend(run_report_sections(events))
    bench_record = None
    if bench_path is not None and Path(bench_path).exists():
        bench_record = json.loads(Path(bench_path).read_text())
    if bench_record:
        sections.extend(trend_sections(bench_record))
    if fmt == "html":
        return render_html(title, sections)
    return render_markdown(title, sections)
