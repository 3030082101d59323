"""Run settings and their config-file ingestion: INI-style sections mapped
onto the model and run settings, with strict key validation, and a
canonical emitter for round-trips and hashing.

Sections and keys:

    [spectrum]            positive_energies, negative_energies
    [interaction]         seed
    [interaction.coulomb] scale, preset | matrix
    [interaction.delta]   scale, preset | matrix
    [integration]         j_order
    [bw]                  order
    [solve]               state_index

Each default is written once, on ModelConfig, on RunConfig below or in bw
(MAX_ORDER); a file without [spectrum] keys gets dirac_like_energies().
The BW solve's stopping rule is no setting: it is bw's MAX_ITER and TOL.
parse_config passes on only the keys a file sets.  Lists are
comma-separated; explicit matrices use ';' between rows and whitespace
between entries.  A file that cannot be read or is not UTF-8 is a
ConfigError.  Unknown sections or keys are rejected by name; duplicate
keys are rejected by the parser with a line number, and a number that is
not finite (nan, inf) by the key it stands under.  The dataclasses' bounds
reject nan and inf too, for configs built in code, and a field annotated
int rejects a value that is not an integer; ModelConfig checks its
spectrum and matrices too.

The table _FIELDS drives both directions: parse_config reads each key with
the row's parser, and emit_config writes the rows in order, each value in
the text form of its parser (_FORMATS).  A new key is one _FIELDS row plus
its dataclass field.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os
from dataclasses import dataclass

from .bw import MAX_ORDER
from .errors import ConfigError
from .model import ModelConfig, check_integer_fields, dirac_like_energies


@dataclass(frozen=True)
class RunConfig:
    """The experiment one command runs; the reference state is the no-pair
    state state_index of the doubly-positive block, and j_order is the
    truncation K of the interaction-kernel geometric series."""

    model: ModelConfig
    j_order: int = 2
    bw_order: int = MAX_ORDER
    state_index: int = 0

    def __post_init__(self):
        check_integer_fields(self)
        if self.j_order < 1:
            raise ConfigError("j_order must be >= 1")
        if not 1 <= self.bw_order <= MAX_ORDER:
            raise ConfigError(f"bw.order must be in 1..{MAX_ORDER}")
        if self.state_index < 0:
            raise ConfigError("solve.state_index must be >= 0")
        n_pp = len(self.model.positive_energies) ** 2
        if self.state_index >= n_pp:
            raise ConfigError(f"solve.state_index {self.state_index} outside the "
                              f"{n_pp}-state doubly-positive block")


def _numbers(tokens, key, kind, text):
    """The finite floats the tokens spell; anything else is a ConfigError
    that names the key."""
    try:
        values = tuple(float(tok) for tok in tokens)
    except ValueError as exc:
        raise ConfigError(f"{key}: could not parse {kind} '{text}'") from exc
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{key}: non-finite value in '{text}'")
    return values


def _floats(text, key):
    return _numbers(text.replace(",", " ").split(), key, "float list", text)


def _float(text, key):
    return _numbers([text], key, "float", text)[0]


def _int(text, key):
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: could not parse integer '{text}'") from exc


def _text(text, key):
    return text


def _matrix(text, key):
    parsed = tuple(_numbers(r.split(), key, "matrix", text) for r in text.split(";") if r.strip())
    if not parsed or any(len(r) != len(parsed) for r in parsed):
        raise ConfigError(f"{key}: matrix must be square")
    return parsed


#: the text form of a value, by the parser that reads it back
_FORMATS = {
    _floats: lambda values: ", ".join(repr(x) for x in values),
    _float: lambda x: repr(x) if isinstance(x, float) else str(x),
    _int: str,
    _text: str,
    _matrix: lambda rows: "; ".join(" ".join(repr(float(x)) for x in row) for row in rows),
}


#: (section, key) -> (settings object, field, parser): "model" is the
#: ModelConfig, "run" the RunConfig
_FIELDS = {
    ("spectrum", "positive_energies"): ("model", "positive_energies", _floats),
    ("spectrum", "negative_energies"): ("model", "negative_energies", _floats),
    ("interaction", "seed"): ("model", "seed", _int),
    ("interaction.coulomb", "scale"): ("model", "coulomb_scale", _float),
    ("interaction.coulomb", "preset"): ("model", "coulomb_matrix", _text),
    ("interaction.coulomb", "matrix"): ("model", "coulomb_matrix", _matrix),
    ("interaction.delta", "scale"): ("model", "delta_scale", _float),
    ("interaction.delta", "preset"): ("model", "delta_matrix", _text),
    ("interaction.delta", "matrix"): ("model", "delta_matrix", _matrix),
    ("integration", "j_order"): ("run", "j_order", _int),
    ("bw", "order"): ("run", "bw_order", _int),
    ("solve", "state_index"): ("run", "state_index", _int),
}


def parse_config(source: str) -> RunConfig:
    """Parse a config from a file path or from inline text: source is read
    as a file when it names one, else as text when it holds a line break.
    A parse error is one line."""
    parser = configparser.ConfigParser(strict=True, interpolation=None)
    try:
        if os.path.isfile(source):
            with open(source, encoding="utf-8") as fh:
                parser.read_string(fh.read(), source=source)
        elif "\n" in source:
            parser.read_string(source)
        else:
            raise ConfigError(f"config file not found: {source}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(f"duplicate key '{exc.option}' in section [{exc.section}]"
                          f" (line {exc.lineno})") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {' '.join(str(exc).split())}") from exc

    known_sections = {sec for sec, _ in _FIELDS}
    present = set()
    for sec in parser.sections():
        if sec not in known_sections:
            raise ConfigError(f"unknown section [{sec}]")
        for key in parser[sec]:
            if (sec, key) not in _FIELDS:
                raise ConfigError(f"unknown key '{key}' in section [{sec}]")
            present.add((sec, key))
    has_spectrum = ("spectrum", "positive_energies") in present
    if has_spectrum != (("spectrum", "negative_energies") in present):
        raise ConfigError("spectrum needs both positive_energies and negative_energies")
    for sec in ("interaction.coulomb", "interaction.delta"):
        if (sec, "preset") in present and (sec, "matrix") in present:
            raise ConfigError(f"{sec}: give either preset or matrix, not both")

    fields = {"model": {}, "run": {}}
    for (sec, key), (part, name, parse) in _FIELDS.items():
        if (sec, key) in present:
            fields[part][name] = parse(parser[sec][key], f"{sec}.{key}")
    model = fields["model"]
    if not has_spectrum:
        model["positive_energies"], model["negative_energies"] = dirac_like_energies()
    return RunConfig(ModelConfig(**model), **fields["run"])


def emit_config(cfg: RunConfig) -> str:
    """Canonical text form: the _FIELDS rows in order, of an interaction's
    preset/matrix pair the one its spec is; parse_config(emit_config(c)) == c."""
    parts = {"model": cfg.model, "run": cfg}
    lines, section = [], None
    for (sec, key), (part, name, parse) in _FIELDS.items():
        value = getattr(parts[part], name)
        # an interaction's spec is a preset name or a matrix: one of its two rows
        if parse is (_matrix if isinstance(value, str) else _text):
            continue
        if sec != section:
            lines += ["", f"[{sec}]"]
            section = sec
        lines.append(f"{key} = {_FORMATS[parse](value)}")
    return "\n".join(lines[1:] + [""])


def text_hash(text: str) -> str:
    """The config hash of a canonical text from emit_config: its SHA-256."""
    return hashlib.sha256(text.encode()).hexdigest()


def config_hash(cfg: RunConfig) -> str:
    return text_hash(emit_config(cfg))
