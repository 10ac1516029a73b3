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
"pi/<number>".  Validation collects every error before reporting, so a bad
config fails with the complete list, not just the first problem.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from .dynamics import Potential, homogeneous, vortex
from .geometry import RingSpec, RingSystem, build

_TOP_KEYS = ("n", "kind", "gamma", "omega", "free_radii",
             "tol_off_block", "tol_oracle", "tol_invariants",
             "report", "csv", "svg")
_RING_KEYS = ("kind", "mass", "radius", "phase", "half_gap")


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
        if self.kind == "vortex":
            return vortex()
        return homogeneous(self.gamma if self.gamma is not None else -1.5)


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
    kind = sec.get("kind")
    if kind not in ("center", "regular", "semiregular"):
        errors.append("ring %d: kind must be center, regular, or semiregular, got %r" % (idx, kind))
        return None
    try:
        mass = float(sec["mass"])
    except KeyError:
        errors.append("ring %d: missing mass" % idx)
        return None
    except ValueError:
        errors.append("ring %d: invalid mass %r" % (idx, sec["mass"]))
        return None
    if mass == 0.0 or not math.isfinite(mass):
        errors.append("ring %d: invalid mass %g (must be nonzero and finite)" % (idx, mass))
        return None

    if kind == "center":
        for k in ("radius", "phase", "half_gap"):
            if k in sec:
                errors.append("ring %d: center rings take no %s" % (idx, k))
        return RingSpec("center", mass)

    try:
        radius = float(sec["radius"])
    except KeyError:
        errors.append("ring %d: missing radius" % idx)
        return None
    except ValueError:
        errors.append("ring %d: invalid radius %r" % (idx, sec["radius"]))
        return None
    if radius <= 0.0 or not math.isfinite(radius):
        errors.append("ring %d: invalid radius %g (must be positive)" % (idx, radius))
        return None

    if kind == "regular":
        if "half_gap" in sec:
            errors.append("ring %d: half_gap applies to semiregular rings only" % idx)
        phase = 0.0
        if "phase" in sec:
            try:
                phase = _parse_angle(sec["phase"], n)
            except ValueError:
                errors.append("ring %d: invalid phase %r" % (idx, sec["phase"]))
                return None
        if not (abs(phase) <= 1e-9 * max(1.0, abs(phase)) or abs(phase - math.pi / n) <= 1e-9):
            errors.append("ring %d: invalid phase %g: regular rings allow 0 or pi/n" % (idx, phase))
            return None
        return RingSpec("regular", mass, radius=radius, phase=phase)

    if "phase" in sec:
        errors.append("ring %d: phase applies to regular rings only" % idx)
    try:
        mu = _parse_angle(sec["half_gap"], n)
    except KeyError:
        errors.append("ring %d: missing half_gap" % idx)
        return None
    except ValueError:
        errors.append("ring %d: invalid half_gap %r" % (idx, sec["half_gap"]))
        return None
    if not (0.0 < mu < math.pi / n):
        errors.append("ring %d: invalid half_gap %g: need 0 < mu < pi/n" % (idx, mu))
        return None
    return RingSpec("semiregular", mass, radius=radius, half_gap=mu)


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

    kind = top.get("kind", "")
    if kind not in ("homogeneous", "vortex"):
        errors.append("kind must be homogeneous or vortex, got %r" % (top.get("kind"),))

    gamma = None
    if "gamma" in top:
        if kind == "vortex":
            errors.append("gamma applies to the homogeneous kind only")
        try:
            gamma = float(top["gamma"])
        except ValueError:
            errors.append("invalid gamma %r" % top["gamma"])
        else:
            if gamma == -1.0:
                errors.append("gamma = -1 is excluded (logarithmic potential)")
            elif not math.isfinite(gamma):
                errors.append("invalid gamma %g" % gamma)

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
                v = float(top[key])
            except ValueError:
                errors.append("invalid %s %r" % (key, top[key]))
                continue
            if not (v > 0 and math.isfinite(v)):
                errors.append("invalid %s %g (must be positive)" % (key, v))
            else:
                tolerances[name] = v

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

    ncenter = sum(1 for r in rings if r.kind == "center")
    if ncenter > 1:
        errors.append("at most one center ring allowed")
    if rings and all(r.kind == "center" for r in rings):
        errors.append("need at least one non-center ring")

    # free_radii counts every [ring] section, parsed or not, so it is checked
    # against each section's kind; the solver's radius gauge is the first
    # non-center ring, known when that section names a valid kind
    kinds = [sec.get("kind") for sec in ring_secs]
    gauge = next((i for i, k in enumerate(kinds) if k != "center"), None)
    if gauge is not None and kinds[gauge] not in ("regular", "semiregular"):
        gauge = None
    for idx in free:
        if idx < 0 or idx >= len(ring_secs):
            errors.append("free radius index %d out of range" % idx)
        elif kinds[idx] == "center":
            errors.append("free radius index %d names a center ring" % idx)
        elif idx == gauge:
            errors.append("ring %d is the radius gauge and cannot be freed" % idx)

    system = None
    if not errors and len(rings) == len(ring_secs):
        try:
            system = build(n, rings)
        except ValueError as exc:
            errors.append(str(exc))

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
