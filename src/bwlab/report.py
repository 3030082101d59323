"""Run reports: a stable key set per command, a deterministic JSON
serializer (floats at 17 significant digits; one walk, which rejects a nan
or inf by its key path), and an aligned text table.

Report keys, in order: base_report's version, command, config_hash and
config (inline echo), then the command's sections, then timings_ms (one
key: identities, pipeline or scan):
    verify   identity_residuals, tolerances, passed
    compare  energy (E_c, dE, E, deltaE, iterations, residual), controversy,
             identity_residuals, oracle_energy
    scan     scan (rows, fitted_exponent, r_squared, failures; an undefined
             ratio, exponent or R^2 is None, rendered as null)

The verify table prints each identity residual with its tolerance and
PASS or FAIL, then the overall verdict.

Two runs of the same config differ only inside timings_ms.
"""

from __future__ import annotations

import math
from dataclasses import fields

from . import __version__
from .config import RunConfig, emit_config, text_hash


def _jsonify(obj, out, path):
    # path: the keys from the report down to obj, formatted only for the error
    if isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(f'"{k}":')
            _jsonify(v, out, (*path, k))
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _jsonify(v, out, (*path, i))
        out.append("]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            where = "".join(f".{k}" if isinstance(k, str) else f"[{k}]" for k in path)
            raise ValueError(f"non-finite value at report{where}: {obj}")
        out.append(format(obj, ".17g"))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif obj is None:
        out.append("null")
    else:
        escaped = str(obj).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        out.append(f'"{escaped}"')


def render_json(report: dict) -> str:
    """The report as JSON; a float that is not finite raises ValueError
    naming its key path (report.energy.E, report.scan.rows[2][1], ...)."""
    out = []
    _jsonify(report, out, ())
    return "".join(out)


def base_report(command: str, cfg: RunConfig) -> dict:
    """The package version, the command, and the config's canonical text
    with its hash (config_hash(cfg)), emitted once."""
    text = emit_config(cfg)
    return {"version": __version__, "command": command, "config_hash": text_hash(text),
            "config": text}


def energy_section(ledger) -> dict:
    return {f.name: getattr(ledger, f.name) for f in fields(ledger)}


def controversy_section(rep) -> dict:
    """The fields of a ControversyReport but identity_residuals, which a
    report carries as a section of its own."""
    return {f.name: getattr(rep, f.name) for f in fields(rep) if f.name != "identity_residuals"}


def _fixed(value, spec, width):
    """format(value, spec), or null right-aligned in width where value is
    undefined (None)."""
    return f"{'null':>{width}}" if value is None else format(value, spec)


def render_table(report: dict) -> str:
    """Aligned plain-text rendering of the scalar report content."""
    lines = [f"bwlab {report['command']}  (version {report['version']})",
             f"config {report['config_hash'][:16]}"]

    def block(title, mapping):
        lines.append("")
        lines.append(title)
        width = max(len(k) for k in mapping)
        for k, v in mapping.items():
            if isinstance(v, float):
                lines.append(f"  {k:<{width}}  {v: .12e}")
            elif isinstance(v, list):
                body = ", ".join(f"{x: .6e}" for x in v)
                lines.append(f"  {k:<{width}}  [{body}]")
            else:
                lines.append(f"  {k:<{width}}  {v}")

    if "energy" in report:
        block("energies", report["energy"])
    if "controversy" in report:
        block("convention comparison", report["controversy"])
    if "oracle_energy" in report:
        block("model oracle", {"oracle_energy": report["oracle_energy"]})
    if "tolerances" in report:
        residuals, tolerances = report["identity_residuals"], report["tolerances"]
        lines.append("")
        lines.append("identity residuals")
        width = max(len(k) for k in residuals)
        for k, v in residuals.items():
            verdict = "PASS" if v <= tolerances[k] else "FAIL"
            lines.append(f"  {k:<{width}}  {v: .12e}  tol {tolerances[k]:.0e}  {verdict}")
        lines.append(f"  {'verdict':<{width}}   {'PASS' if report['passed'] else 'FAIL'}")
    elif "identity_residuals" in report:
        block("identity residuals", report["identity_residuals"])
    if "scan" in report:
        sc = report["scan"]
        lines.append("")
        lines.append("coupling scan")
        lines.append(f"  {'lambda':>10}  {'difference':>16}  {'predicted':>16}  {'ratio':>10}")
        for lam, diff, pred, ratio in sc["rows"]:
            lines.append(f"  {lam:>10.5f}  {diff:>16.8e}  {pred:>16.8e}  "
                         f"{_fixed(ratio, '>10.6f', 10)}")
        lines.append(f"  fitted_exponent  {_fixed(sc['fitted_exponent'], ' .6f', 5)}")
        lines.append(f"  r_squared        {_fixed(sc['r_squared'], ' .8f', 5)}")
        for lam, msg in sc.get("failures", []):
            lines.append(f"  FAILED lambda={lam}: {msg}")
    if "timings_ms" in report:
        block("timings [ms]", report["timings_ms"])
    lines.append("")
    return "\n".join(lines)


def write_csv(path, rows):
    """Scan rows as CSV: header lambda,difference,predicted,ratio.  An
    undefined ratio (None) is written as an empty field."""
    with open(path, "w") as fh:
        fh.write("lambda,difference,predicted,ratio\n")
        for lam, diff, pred, ratio in rows:
            ratio_text = "" if ratio is None else f"{ratio:.17g}"
            fh.write(f"{lam:.17g},{diff:.17g},{pred:.17g},{ratio_text}\n")
