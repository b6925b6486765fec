"""Experiment configuration: a small INI-style grammar, fully validated.

Grammar: `[section]` headers, `key = value` entries, `#` comments.
Values are integers, floats, booleans (true/false), quoted strings, or
bracketed lists `[a, b, c]` of numbers or quoted strings.  Parsing
validates every entry against a schema and reports all problems at once,
each with its line number, instead of stopping at the first.
"""

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .bodies import AxisCube, Ball, simplex
from .densities import Boltzmann, Exponential, Gaussian, Uniform
from .diagnostics import BallSet, HalfspaceSet

SUBCOMMANDS = ("sample", "constants", "volume", "optimize", "cutplane",
               "sloc", "needles", "isotropy")
WALK_KINDS = ("ball_walk", "metropolis", "hit_and_run", "coordinate_hit_and_run")
BODY_KINDS = ("cube", "ball", "simplex")
DENSITY_KINDS = ("uniform", "gaussian", "exponential", "boltzmann")
CONTROL_KINDS = ("identity", "inverse_sqrt_cov")
SCHEDULE_METHODS = ("dfk", "lv", "cooling")


class ConfigError(ValueError):
    """Carries every parse/validation problem, one message per line."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v):
    return _is_int(v) or isinstance(v, float)


def _is_vec(v):
    return isinstance(v, list) and len(v) > 0 and all(_is_num(x) for x in v)


def _is_strlist(v):
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


# key -> (checker, description).  The checker sees the parsed value.
_SCHEMA = {
    "experiment": {
        "subcommand": (lambda v: v in SUBCOMMANDS,
                       "one of " + ", ".join(SUBCOMMANDS)),
        "seed": (lambda v: _is_int(v) and 0 <= v < 2 ** 64, "integer in [0, 2^64)"),
        "out": (lambda v: isinstance(v, str), "quoted path"),
        "threads": (lambda v: _is_int(v) and v >= 1, "integer >= 1"),
    },
    "body": {
        "kind": (lambda v: v in BODY_KINDS, "one of " + ", ".join(BODY_KINDS)),
        "n": (lambda v: _is_int(v) and v >= 1, "integer >= 1"),
        "half_width": (lambda v: _is_num(v) and v > 0, "positive number"),
        "radius": (lambda v: _is_num(v) and v > 0, "positive number"),
    },
    "density": {
        "kind": (lambda v: v in DENSITY_KINDS, "one of " + ", ".join(DENSITY_KINDS)),
        "a": (lambda v: _is_num(v) and v >= 0, "number >= 0"),
        "alpha": (lambda v: _is_num(v) and v > 0, "positive number"),
        "c": (_is_vec, "numeric list"),
    },
    "walk": {
        "kind": (lambda v: v in WALK_KINDS, "one of " + ", ".join(WALK_KINDS)),
        "delta": (lambda v: _is_num(v) and v > 0, "positive number"),
        "burn_in": (lambda v: _is_int(v) and v >= 0, "integer >= 0"),
        "thin": (lambda v: _is_int(v) and v >= 1, "integer >= 1"),
        "n_samples": (lambda v: _is_int(v) and v >= 1, "integer >= 1"),
        "exact": (lambda v: isinstance(v, bool), "true or false"),
    },
    "schedule": {
        "method": (lambda v: v in SCHEDULE_METHODS,
                   "one of " + ", ".join(SCHEDULE_METHODS)),
        "k": (lambda v: _is_int(v) and v >= 1, "integer >= 1"),
        "eps": (lambda v: _is_num(v) and v > 0, "positive number"),
        "c": (_is_vec, "numeric list"),
        "alpha0": (lambda v: _is_num(v) and v > 0, "positive number"),
    },
    "sloc": {
        "T": (lambda v: _is_num(v) and v > 0, "positive number"),
        "h": (lambda v: _is_num(v) and v > 0, "positive number"),
        "k": (lambda v: _is_int(v) and v >= 1, "integer >= 1"),
        "n_runs": (lambda v: _is_int(v) and v >= 1, "integer >= 1"),
        "control": (lambda v: v in CONTROL_KINDS,
                    "one of " + ", ".join(CONTROL_KINDS)),
        "q": (lambda v: _is_int(v) and v >= 2, "integer >= 2"),
        "sets": (_is_strlist, "list of quoted set descriptors"),
        "inner_steps": (lambda v: _is_int(v) and v >= 1, "integer >= 1"),
        "window": (lambda v: _is_int(v) and v >= 1, "integer >= 1"),
        "closed_form": (lambda v: isinstance(v, bool), "true or false"),
    },
    "needles": {
        "eps": (lambda v: _is_num(v) and v > 0, "positive number"),
        "max_depth": (lambda v: _is_int(v) and v >= 0, "integer >= 0"),
        "k": (lambda v: _is_int(v) and v >= 1, "integer >= 1"),
        "set": (lambda v: isinstance(v, str), "quoted set descriptor"),
    },
    "cutplane": {
        "target_radius": (lambda v: _is_num(v) and v > 0, "positive number"),
        "target_offset": (_is_vec, "numeric list"),
        "max_iters": (lambda v: _is_int(v) and v >= 1, "integer >= 1"),
        "m_per_iter": (lambda v: _is_int(v) and v >= 1, "integer >= 1"),
    },
    "isotropy": {
        "max_iters": (lambda v: _is_int(v) and v >= 1, "integer >= 1"),
        "k": (lambda v: _is_int(v) and v >= 1, "integer >= 1"),
    },
}

@dataclass
class ExperimentConfig:
    # subcommand may instead come from the command line; run_experiment
    # requires it to be set by then
    subcommand: str = None
    seed: int = 0
    out: str = "."
    threads: int = 1
    body: dict = field(default_factory=dict)
    density: dict = field(default_factory=dict)
    walk: dict = field(default_factory=dict)
    schedule: dict = field(default_factory=dict)
    sloc: dict = field(default_factory=dict)
    needles: dict = field(default_factory=dict)
    cutplane: dict = field(default_factory=dict)
    isotropy: dict = field(default_factory=dict)

    def canonical_text(self):
        """Normalized dump: sorted sections and keys, 17-digit floats.

        out and threads are excluded: where results land and how many
        workers computed them must not change what gets computed.
        """
        lines = [f"experiment.subcommand={self.subcommand}",
                 f"experiment.seed={self.seed}"]
        for section in sorted(_SCHEMA):
            if section == "experiment":
                continue
            for key in sorted(getattr(self, section)):
                lines.append(f"{section}.{key}={_canon(getattr(self, section)[key])}")
        return "\n".join(lines)

    def config_hash(self):
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


def _canon(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.17g" % v
    if isinstance(v, list):
        return "[" + ",".join(_canon(x) for x in v) + "]"
    return str(v)


def _parse_scalar(token, line_no, errors):
    token = token.strip()
    if token.startswith('"'):
        if len(token) >= 2 and token.endswith('"'):
            return token[1:-1]
        errors.append(f"line {line_no}: unterminated string {token}")
        return None
    if token == "true":
        return True
    if token == "false":
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        val = float(token)
    except ValueError:
        errors.append(f"line {line_no}: cannot parse value {token!r} "
                      "(strings must be quoted)")
        return None
    if not math.isfinite(val):
        errors.append(f"line {line_no}: non-finite number {token!r}")
        return None
    return val


def _parse_value(token, line_no, errors):
    token = token.strip()
    if token.startswith("["):
        if not token.endswith("]"):
            errors.append(f"line {line_no}: unterminated list {token!r}")
            return None
        inner = token[1:-1].strip()
        if not inner:
            errors.append(f"line {line_no}: empty list")
            return None
        return [_parse_scalar(part, line_no, errors)
                for part in inner.split(",")]
    return _parse_scalar(token, line_no, errors)


def parse_config(text):
    """Parse and validate; raises ConfigError listing every problem."""
    errors = []
    sections = {name: {} for name in _SCHEMA}
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                errors.append(f"line {line_no}: malformed section header {line!r}")
                current = None
                continue
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                errors.append(f"line {line_no}: unknown section [{name}]")
                current = None
            else:
                current = name
            continue
        if "=" not in line:
            errors.append(f"line {line_no}: expected key = value, got {line!r}")
            continue
        key, _, value_token = line.partition("=")
        key = key.strip()
        if current is None:
            errors.append(f"line {line_no}: entry {key!r} outside any known section")
            continue
        if key not in _SCHEMA[current]:
            errors.append(f"line {line_no}: unknown key {key!r} in [{current}]")
            continue
        value = _parse_value(value_token, line_no, errors)
        if value is None or (isinstance(value, list) and None in value):
            continue
        checker, description = _SCHEMA[current][key]
        if not checker(value):
            errors.append(f"line {line_no}: [{current}] {key} must be {description}, "
                          f"got {value!r}")
            continue
        if key in sections[current]:
            errors.append(f"line {line_no}: duplicate key {key!r} in [{current}]")
            continue
        sections[current][key] = value

    if errors:
        raise ConfigError(errors)
    # the [experiment] keys are ExperimentConfig's scalar fields, every
    # other section is its dict field of the same name
    return ExperimentConfig(**sections.pop("experiment"), **sections)


# ---------------------------------------------------------------------------
# construction from validated config sections


def make_body(cfg):
    spec = cfg.body
    if "kind" not in spec or "n" not in spec:
        raise ConfigError(["[body] needs kind and n"])
    kind, n = spec["kind"], spec["n"]
    if kind == "cube":
        return AxisCube(n, half_width=float(spec.get("half_width", 1.0)))
    if kind == "ball":
        return Ball(n, radius=float(spec.get("radius", 1.0)))
    return simplex(n)


def make_density(cfg, body):
    spec = cfg.density
    kind = spec.get("kind", "uniform")
    if kind == "uniform":
        return Uniform(body)
    if kind == "gaussian":
        return Gaussian(body, a=float(spec.get("a", 1.0)))
    if kind == "exponential":
        return Exponential(body, alpha=float(spec.get("alpha", 1.0)))
    c = spec.get("c")
    if c is None:
        raise ConfigError(["[density] boltzmann needs the cost vector c"])
    if len(c) != body.n:
        raise ConfigError([f"[density] c has length {len(c)}, body has n={body.n}"])
    return Boltzmann(body, alpha=float(spec.get("alpha", 1.0)), c=np.asarray(c, float))


def parse_set_descriptor(text, n):
    """"halfspace <axis> <offset>" (x_axis <= offset) or "ball <rho>"."""
    parts = text.split()
    try:
        if parts[0] == "halfspace" and len(parts) == 3:
            axis = int(parts[1])
            if not 0 <= axis < n:
                raise ValueError
            u = np.zeros(n)
            u[axis] = 1.0
            return HalfspaceSet(u, float(parts[2]))
        if parts[0] == "ball" and len(parts) == 2:
            return BallSet(np.zeros(n), float(parts[1]))
        raise ValueError
    except (ValueError, IndexError):
        raise ConfigError(
            [f"set descriptor {text!r} is not 'halfspace <axis> <offset>' "
             "or 'ball <rho>'"]) from None


def make_tracked_sets(cfg, n):
    return [(f"E{idx}", parse_set_descriptor(text, n))
            for idx, text in enumerate(cfg.sloc.get("sets", []))]
