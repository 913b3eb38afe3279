"""The end-of-run monitoring dashboard: text + JSONL, byte-stable.

``python -m repro monitor <experiment>`` re-runs an experiment with
observability-plus-windows attached, then renders each observed host's
telemetry through this module:

* :func:`dashboard_lines` -- an operator-style text dashboard: window
  pipeline digest, per-container health table, sparkline trends for
  the headline series, and the alert log;
* :func:`monitor_jsonl_lines` -- the machine-readable dump: one meta
  record, then every window rollup, alert, and health transition in
  deterministic order.  The verify gate (tier-0g) runs the same seeded
  experiment twice and requires these bytes to be identical.

Everything here is a pure function of the pipeline/watchdog state,
which in turn is a pure function of (tree, params, seed); the DET lint
keeps wall clocks out of this package unwaivably.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from repro.obs.export import _dumps

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.observe import Observability

#: Sparkline glyphs, shortest first.
SPARK_GLYPHS = "▁▂▃▄▅▆▇█"

#: Headline series drawn as sparklines: (label, subsystem, metric,
#: source) where source is "rate" (summed across containers) or "p99"
#: (worst across containers).
HEADLINE_SERIES = (
    ("req/s", "app", "requests", "rate"),
    ("syn/s", "net", "syns", "rate"),
    ("syn drops/s", "net", "syn_drops", "rate"),
    ("client p99 ms", "client", "latency_us", "p99"),
)

#: Alerts shown in the text dashboard before eliding the middle.
ALERT_LOG_LIMIT = 24


def sparkline(values: list) -> str:
    """Deterministic unicode sparkline; empty string for no data."""
    if not values:
        return ""
    lo = min(values)
    hi = max(values)
    if hi <= lo:
        return SPARK_GLYPHS[0] * len(values)
    span = hi - lo
    top = len(SPARK_GLYPHS) - 1
    return "".join(
        SPARK_GLYPHS[min(top, int((value - lo) / span * len(SPARK_GLYPHS)))]
        for value in values
    )


def _headline_values(pipeline, subsystem: str, metric: str,
                     source: str) -> list:
    """Per-window aggregate values for one headline series."""
    out = []
    for rollup in pipeline.rollups:
        if source == "rate":
            out.append(rollup.rate_sum(subsystem, metric))
        else:
            worst = None
            for key, summary in rollup.latency.items():
                if key[1] == subsystem and key[2] == metric:
                    value = summary.get(source)
                    if value is not None and (worst is None or value > worst):
                        worst = value
            out.append(worst if worst is not None else 0.0)
    return out


def dashboard_lines(obs: "Observability") -> list:
    """The text dashboard as a list of lines."""
    pipeline = obs.pipeline
    watchdog = obs.watchdog
    if pipeline is None:
        return ["monitor: no window pipeline attached"]
    lines = ["== monitor dashboard ==", pipeline.summary()]
    by_severity: dict[str, int] = {}
    for alert in pipeline.alerts:
        by_severity[alert.severity] = by_severity.get(alert.severity, 0) + 1
    severities = ", ".join(
        f"{count} {severity}"
        for severity, count in sorted(by_severity.items())
    ) or "none"
    lines.append(f"alerts: {severities}")
    lines.append("")

    lines.append("-- trends (per window) --")
    for label, subsystem, metric, source in HEADLINE_SERIES:
        values = _headline_values(pipeline, subsystem, metric, source)
        if source == "p99":
            values = [value / 1e3 for value in values]
        if not any(values):
            continue
        lines.append(
            f"{label:>14s}  {sparkline(values)}  "
            f"last={values[-1]:,.1f} max={max(values):,.1f}"
        )
    lines.append("")

    if watchdog is not None:
        lines.append("-- container health --")
        health = watchdog.health()
        if not health:
            lines.append("all principals ok (no alerts)")
        else:
            lines.append(f"{'container':28s}{'state':12s}{'since':>12s}")
            latest: dict[str, float] = {}
            for transition in watchdog.transitions:
                latest[transition.container] = transition.time_us
            for container, state in health.items():
                since = latest.get(container)
                since_s = f"{since / 1e6:.3f}s" if since is not None else "-"
                lines.append(f"{container:28s}{state:12s}{since_s:>12s}")
        lines.append("")

    lines.append("-- alert log --")
    alerts = pipeline.alerts
    if not alerts:
        lines.append("(no alerts)")
    elif len(alerts) <= ALERT_LOG_LIMIT:
        lines.extend(alert.render() for alert in alerts)
    else:
        head = ALERT_LOG_LIMIT // 2
        tail = ALERT_LOG_LIMIT - head
        lines.extend(alert.render() for alert in alerts[:head])
        lines.append(f"... ({len(alerts) - ALERT_LOG_LIMIT} elided) ...")
        lines.extend(alert.render() for alert in alerts[len(alerts) - tail:])
    return lines


def render_dashboard(obs: "Observability") -> str:
    """The text dashboard as one string."""
    return "\n".join(dashboard_lines(obs))


def monitor_jsonl_lines(obs: "Observability") -> list:
    """The JSONL export: meta, windows, alerts, transitions, health."""
    pipeline = obs.pipeline
    watchdog = obs.watchdog
    if pipeline is None:
        return []
    lines = [
        _dumps(
            {
                "type": "meta",
                "window_us": pipeline.window_us,
                "windows_closed": pipeline.windows_closed,
                "series": len(pipeline.series_keys),
                "retained_points": pipeline.retained_points,
                "dropped_points": pipeline.dropped_points,
                "dropped_rollups": pipeline.dropped_rollups,
                "alerts": len(pipeline.alerts),
            }
        )
    ]
    for rollup in pipeline.rollups:
        lines.append(_dumps({"type": "window", **rollup.to_dict()}))
    for alert in pipeline.alerts:
        lines.append(_dumps({"type": "alert", **alert.to_dict()}))
    if watchdog is not None:
        for transition in watchdog.transitions:
            lines.append(
                _dumps({"type": "transition", **transition.to_dict()})
            )
        lines.append(
            _dumps(
                {
                    "type": "health",
                    "states": watchdog.health(),
                    "worst": watchdog.worst_state(),
                }
            )
        )
    return lines


def write_monitor_exports(obs: "Observability",
                          outdir: "str | Path") -> list:
    """Write ``dashboard.txt`` + ``monitor.jsonl``; returns the paths."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    text_path = out / "dashboard.txt"
    text_path.write_text(render_dashboard(obs) + "\n", encoding="utf-8")
    paths.append(text_path)
    jsonl_path = out / "monitor.jsonl"
    jsonl_path.write_text(
        "".join(line + "\n" for line in monitor_jsonl_lines(obs)),
        encoding="utf-8",
    )
    paths.append(jsonl_path)
    return paths
