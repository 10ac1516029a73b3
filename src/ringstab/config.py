"""Job configuration: flat key = value text with bracketed ring sections.

Example::

    n = 4
    kind = homogeneous
    gamma = -1.5
    omega = solve

    [ring]
    kind = center
    mass = 4

    [ring]
    kind = regular
    mass = 0.5
    radius = 1
    phase = 0

Angle values accept plain floats plus the forms "pi/n" (the config's n) and
"pi/<number>".  This module parses text into typed values and collects every
problem, so a bad config fails with the complete list, not just the first.
The rules on the values belong to the library: `check_ring` judges a ring,
`build` the system, `Potential` the kind and gamma, `free_radius_errors` the
free radii.  The threshold rule of `tol_<key>` and `--tol` is `threshold`'s.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from .dynamics import Potential, free_radius_errors, homogeneous
from .geometry import RingSpec, RingSystem, build, check_ring

_TOP_KEYS = ("n", "kind", "gamma", "omega", "free_radii",
             "tol_off_block", "tol_oracle", "tol_invariants",
             "report", "csv", "svg")
_RING_KEYS = ("kind", "mass", "radius", "phase", "half_gap")
#: the value keys each ring kind takes; phase may be left out and reads 0
_RING_VALUES = {"center": ("mass",), "regular": ("mass", "radius", "phase"),
                "semiregular": ("mass", "radius", "half_gap")}


class ConfigError(ValueError):
    """Carries the full list of validation problems."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class JobConfig:
    n: int
    rings: list[RingSpec]
    kind: str                        # "homogeneous" | "vortex"
    gamma: float | None
    omega: float | str               # number or "solve"
    free_radii: tuple[int, ...] = ()
    tolerances: dict[str, float] = field(default_factory=dict)
    outputs: dict[str, bool] = field(default_factory=lambda: {"report": True, "csv": False, "svg": False})
    source_sha256: str = ""
    path: str = ""
    #: the system of n and rings, set by `parse_config_text` when it
    #: validates them; not a constructor argument
    _system: RingSystem = field(init=False, repr=False, compare=False)

    def system(self) -> RingSystem:
        return self._system

    def potential(self) -> Potential:
        return Potential(self.kind) if self.gamma is None else Potential(self.kind, self.gamma)


def threshold(text: str) -> float:
    """A gate threshold, from `tol_<key>` or `--tol`: a positive finite number."""
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise ValueError("threshold must be positive and finite, got %g" % value)
    return value


def _parse_angle(text: str, n: int) -> float:
    t = text.strip().lower()
    if t == "pi/n":
        return math.pi / n
    if t.startswith("pi/"):
        return math.pi / float(t[3:])
    return float(t)


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ValueError("not a boolean: %r" % text)


def _read_sections(text: str, errors: list[str]):
    """Split into (top-level dict, list of ring dicts); values stay strings."""
    top: dict[str, str] = {}
    rings: list[dict[str, str]] = []
    current = top
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line.lower() != "[ring]":
                errors.append("line %d: unknown section %s (only [ring] is defined)" % (lineno, line))
                current = {}
            else:
                rings.append({})
                current = rings[-1]
            continue
        if "=" not in line:
            errors.append("line %d: expected key = value, got %r" % (lineno, raw.strip()))
            continue
        key, val = (s.strip() for s in line.split("=", 1))
        allowed = _RING_KEYS if current is not top else _TOP_KEYS
        if key not in allowed:
            where = "ring section" if current is not top else "top level"
            errors.append("line %d: unknown key %r at %s" % (lineno, key, where))
            continue
        if key in current:
            errors.append("line %d: duplicate key %r" % (lineno, key))
            continue
        current[key] = val
    return top, rings


def _ring_spec(idx: int, sec: dict[str, str], n: int, errors: list[str]) -> RingSpec | None:
    """The section's RingSpec when its values parse and `check_ring` admits
    it; otherwise None, with the problems appended to errors."""
    prefix = "ring %d: " % idx
    kind = sec.get("kind")
    if kind not in _RING_VALUES:
        errors.append(prefix + "kind must be center, regular, or semiregular, got %r" % (kind,))
        return None
    keys = _RING_VALUES[kind]
    errors += [prefix + "%s rings take no %s" % (kind, k)
               for k in _RING_KEYS[1:] if k in sec and k not in keys]
    values = {}
    for key in keys:
        text = sec.get(key, "0" if key == "phase" else None)
        if text is None:
            errors.append(prefix + "missing %s" % key)
            continue
        try:
            values[key] = float(text) if key in ("mass", "radius") else _parse_angle(text, n)
        except (ValueError, ZeroDivisionError):
            errors.append(prefix + "invalid %s %r" % (key, text))
    if len(values) < len(keys):
        return None
    spec = RingSpec(kind, **values)
    try:
        check_ring(n, spec)
    except ValueError as exc:
        errors.append(prefix + str(exc))
        return None
    return spec


def parse_config_text(text: str, path: str = "<string>") -> JobConfig:
    """Parse and validate; raises ConfigError listing every problem found."""
    errors: list[str] = []
    top, ring_secs = _read_sections(text, errors)

    n = 0
    if "n" not in top:
        errors.append("missing required key n")
    else:
        try:
            n = int(top["n"])
        except ValueError:
            errors.append("n must be an integer >= 2, got %r" % top["n"])
        else:
            if n < 2:
                errors.append("n must be an integer >= 2, got %d" % n)

    kind = top.get("kind")
    try:
        Potential(kind)
    except ValueError as exc:
        errors.append(str(exc))

    gamma = None
    if "gamma" in top:
        if kind == "vortex":
            errors.append("gamma applies to the homogeneous kind only")
        try:
            gamma = float(top["gamma"])
        except ValueError:
            errors.append("invalid gamma %r" % top["gamma"])
        else:
            # judged as a homogeneous exponent whatever the kind, so a bad
            # kind and a bad gamma are both reported
            try:
                homogeneous(gamma)
            except ValueError as exc:
                errors.append(str(exc))

    omega: float | str = "solve"
    if "omega" not in top:
        errors.append("missing required key omega (a number or solve)")
    elif top["omega"].strip().lower() == "solve":
        omega = "solve"
    else:
        try:
            omega = float(top["omega"])
        except ValueError:
            errors.append("omega must be a number or solve, got %r" % top["omega"])
        else:
            if not math.isfinite(omega):
                errors.append("omega must be finite, got %g" % omega)
                omega = "solve"

    free: tuple[int, ...] = ()
    if "free_radii" in top and top["free_radii"].strip():
        try:
            free = tuple(int(s.strip()) for s in top["free_radii"].split(","))
        except ValueError:
            errors.append("free_radii must be comma-separated ring indices, got %r" % top["free_radii"])

    tolerances: dict[str, float] = {}
    for key, name in (("tol_off_block", "off_block"), ("tol_oracle", "oracle"),
                      ("tol_invariants", "invariants")):
        if key in top:
            try:
                tolerances[name] = threshold(top[key])
            except ValueError:
                errors.append("invalid %s %r (must be positive and finite)" % (key, top[key]))

    outputs = {"report": True, "csv": False, "svg": False}
    for key in ("report", "csv", "svg"):
        if key in top:
            try:
                outputs[key] = _parse_bool(top[key])
            except ValueError:
                errors.append("%s must be a boolean, got %r" % (key, top[key]))

    rings: list[RingSpec] = []
    if not ring_secs:
        errors.append("at least one [ring] section is required")
    if n >= 2:
        for i, sec in enumerate(ring_secs):
            spec = _ring_spec(i, sec, n, errors)
            if spec is not None:
                rings.append(spec)

    # the system rules are judged on every ring or not at all
    system = None
    if rings and len(rings) == len(ring_secs):
        try:
            system = build(n, rings)
        except ValueError as exc:
            errors.append(str(exc))

    # free_radii counts every [ring] section, parsed or not
    errors += free_radius_errors([sec.get("kind") if sec.get("kind") in _RING_VALUES else None
                                  for sec in ring_secs], free)

    if errors:
        raise ConfigError(errors)

    cfg = JobConfig(n=n, rings=rings, kind=kind, gamma=gamma, omega=omega,
                    free_radii=free, tolerances=tolerances, outputs=outputs,
                    source_sha256=hashlib.sha256(text.encode()).hexdigest(),
                    path=path)
    cfg._system = system
    return cfg


def parse_config(path: str) -> JobConfig:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_config_text(text, path=path)
