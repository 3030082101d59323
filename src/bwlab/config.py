"""Config-file ingestion: INI-style sections mapped onto the model,
integration, and solver settings, with defaults, strict key validation,
and a canonical emitter for round-trips and hashing.

Sections and keys:

    [spectrum]            positive_energies, negative_energies
    [interaction]         seed
    [interaction.coulomb] scale, preset | matrix
    [interaction.delta]   scale, preset | matrix
    [integration]         eta_sequence, quadrature_points, cutoff_factor, j_order
    [bw]                  order, max_iter, tol
    [solve]               state_index

Lists are comma-separated; explicit matrices use ';' between rows and
whitespace between entries.  Unknown sections or keys are rejected by
name; duplicate keys are rejected by the parser with a line number.
"""

from __future__ import annotations

import configparser
import hashlib
import os
from dataclasses import dataclass

from .errors import ConfigError
from .model import ModelConfig, dirac_like_energies
from .propagators import DEFAULT_ETA_SEQUENCE, IntegrationSettings

_KNOWN = {
    "spectrum": {"positive_energies", "negative_energies"},
    "interaction": {"seed"},
    "interaction.coulomb": {"scale", "preset", "matrix"},
    "interaction.delta": {"scale", "preset", "matrix"},
    "integration": {"eta_sequence", "quadrature_points", "cutoff_factor", "j_order"},
    "bw": {"order", "max_iter", "tol"},
    "solve": {"state_index"},
}


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    integration: IntegrationSettings
    bw_order: int = 3
    bw_max_iter: int = 200
    bw_tol: float = 1e-12
    state_index: int = 0

    def __post_init__(self):
        if not 1 <= self.bw_order <= 3:
            raise ConfigError("bw.order must be 1, 2, or 3")
        if self.bw_max_iter < 1:
            raise ConfigError("bw.max_iter must be >= 1")
        if self.bw_tol <= 0:
            raise ConfigError("bw.tol must be > 0")
        if self.state_index < 0:
            raise ConfigError("solve.state_index must be >= 0")
        n_pp = len(self.model.positive_energies) ** 2
        if n_pp and self.state_index >= n_pp:
            raise ConfigError(f"solve.state_index {self.state_index} outside the "
                              f"{n_pp}-state doubly-positive block")


def _floats(text, key):
    try:
        return tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"{key}: could not parse float list '{text}'") from exc


def _float(text, key):
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: could not parse float '{text}'") from exc


def _int(text, key):
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: could not parse integer '{text}'") from exc


def _matrix(text, key):
    rows = [r for r in text.split(";") if r.strip()]
    try:
        parsed = tuple(tuple(float(t) for t in r.split()) for r in rows)
    except ValueError as exc:
        raise ConfigError(f"{key}: could not parse matrix '{text}'") from exc
    if not parsed or any(len(r) != len(parsed) for r in parsed):
        raise ConfigError(f"{key}: matrix must be square")
    return parsed


def _interaction_spec(section, prefix):
    has_preset = "preset" in section
    has_matrix = "matrix" in section
    if has_preset and has_matrix:
        raise ConfigError(f"{prefix}: give either preset or matrix, not both")
    if has_matrix:
        return _matrix(section["matrix"], f"{prefix}.matrix")
    return section.get("preset", "ones")


def parse_config(source: str) -> RunConfig:
    """Parse a config from a file path or from inline text."""
    parser = configparser.ConfigParser(strict=True, interpolation=None)
    try:
        if "\n" in source or "=" in source:
            parser.read_string(source)
        else:
            if not os.path.exists(source):
                raise ConfigError(f"config file not found: {source}")
            with open(source) as fh:
                parser.read_string(fh.read(), source=source)
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(f"duplicate key '{exc.option}' in section [{exc.section}]"
                          f" (line {exc.lineno})") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    for sec in parser.sections():
        if sec not in _KNOWN:
            raise ConfigError(f"unknown section [{sec}]")
        for key in parser[sec]:
            if key not in _KNOWN[sec]:
                raise ConfigError(f"unknown key '{key}' in section [{sec}]")

    def get(sec, key, default=None):
        if parser.has_section(sec) and key in parser[sec]:
            return parser[sec][key]
        return default

    pos_text = get("spectrum", "positive_energies")
    neg_text = get("spectrum", "negative_energies")
    if pos_text is None and neg_text is None:
        positives, negatives = dirac_like_energies()
    elif pos_text is None or neg_text is None:
        raise ConfigError("spectrum needs both positive_energies and negative_energies")
    else:
        positives = _floats(pos_text, "spectrum.positive_energies")
        negatives = _floats(neg_text, "spectrum.negative_energies")

    coulomb = parser["interaction.coulomb"] if parser.has_section("interaction.coulomb") else {}
    delta = parser["interaction.delta"] if parser.has_section("interaction.delta") else {}
    lam_c = _float(coulomb.get("scale", "0.1"), "interaction.coulomb.scale")
    lam_d = _float(delta.get("scale", "0.05"), "interaction.delta.scale")

    model = ModelConfig(
        positive_energies=positives,
        negative_energies=negatives,
        coulomb_scale=lam_c,
        delta_scale=lam_d,
        coulomb_matrix=_interaction_spec(coulomb, "interaction.coulomb"),
        delta_matrix=_interaction_spec(delta, "interaction.delta"),
        seed=_int(get("interaction", "seed", "1"), "interaction.seed"),
    )
    eta_text = get("integration", "eta_sequence")
    integration = IntegrationSettings(
        eta_sequence=(
            _floats(eta_text, "integration.eta_sequence") if eta_text else DEFAULT_ETA_SEQUENCE
        ),
        quadrature_points=_int(get("integration", "quadrature_points", "16"),
                               "integration.quadrature_points"),
        cutoff_factor=_float(get("integration", "cutoff_factor", "1e4"),
                             "integration.cutoff_factor"),
        j_order=_int(get("integration", "j_order", "2"), "integration.j_order"),
    )
    return RunConfig(
        model=model,
        integration=integration,
        bw_order=_int(get("bw", "order", "3"), "bw.order"),
        bw_max_iter=_int(get("bw", "max_iter", "200"), "bw.max_iter"),
        bw_tol=_float(get("bw", "tol", "1e-12"), "bw.tol"),
        state_index=_int(get("solve", "state_index", "0"), "solve.state_index"),
    )


def _fmt(x):
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _fmt_spec(spec):
    if isinstance(spec, str):
        return ("preset", spec)
    return ("matrix", "; ".join(" ".join(repr(float(v)) for v in row) for row in spec))


def emit_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(emit_config(c)) == c."""
    m, integ = cfg.model, cfg.integration
    ck, cv = _fmt_spec(m.coulomb_matrix)
    dk, dv = _fmt_spec(m.delta_matrix)
    lines = [
        "[spectrum]",
        "positive_energies = " + ", ".join(repr(e) for e in m.positive_energies),
        "negative_energies = " + ", ".join(repr(e) for e in m.negative_energies),
        "",
        "[interaction]",
        f"seed = {m.seed}",
        "",
        "[interaction.coulomb]",
        f"scale = {_fmt(m.coulomb_scale)}",
        f"{ck} = {cv}",
        "",
        "[interaction.delta]",
        f"scale = {_fmt(m.delta_scale)}",
        f"{dk} = {dv}",
        "",
        "[integration]",
        "eta_sequence = " + ", ".join(repr(e) for e in integ.eta_sequence),
        f"quadrature_points = {integ.quadrature_points}",
        f"cutoff_factor = {_fmt(integ.cutoff_factor)}",
        f"j_order = {integ.j_order}",
        "",
        "[bw]",
        f"order = {cfg.bw_order}",
        f"max_iter = {cfg.bw_max_iter}",
        f"tol = {_fmt(cfg.bw_tol)}",
        "",
        "[solve]",
        f"state_index = {cfg.state_index}",
        "",
    ]
    return "\n".join(lines)


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(emit_config(cfg).encode()).hexdigest()
