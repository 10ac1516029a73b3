"""Workload definitions: seeded job lists of generated config files.

Each job is one CLI verb (``analyze`` or ``verify``) on one config file
written here; the program sees only those files.  Every job carries what the
output checks need to judge it: the expected exit code and, where one
exists, the closed-form angular speed.  Where radii are free, the
independent balance in `physics` locates an equilibrium first and the
solver starts a few percent away from it; only the sweep's nested family
also holds systems without an equilibrium in the radius range it starts in.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

import physics

NEWTON_GAMMA = -1.5


@dataclass
class Job:
    label: str
    verb: str                     # "analyze" | "verify"
    n: int
    kind: str                     # "homogeneous" | "vortex"
    rings: list                   # (kind, mass, radius, phase); radius = initial guess
    free: tuple = ()
    gamma: float = NEWTON_GAMMA
    outputs: bool = False         # --out with csv and svg
    expect_exit: int = 0
    closed_omega: float | None = None
    config: str = ""
    out: str | None = None
    argv: list = field(default_factory=list)

    @property
    def type_abc(self) -> tuple[int, int, int]:
        return (sum(r[0] == "center" for r in self.rings),
                sum(r[0] == "regular" for r in self.rings), 0)


def _config_text(job: Job) -> str:
    lines = ["n = %d" % job.n, "kind = %s" % job.kind]
    if job.kind == "homogeneous":
        lines.append("gamma = %r" % job.gamma)
    lines.append("omega = solve")
    if job.free:
        lines.append("free_radii = %s" % ", ".join(str(i) for i in job.free))
    if job.outputs:
        lines += ["csv = true", "svg = true"]
    for kind, mass, radius, phase in job.rings:
        lines += ["", "[ring]", "kind = %s" % kind, "mass = %r" % mass]
        if kind != "center":
            lines.append("radius = %r" % radius)
            lines.append("phase = %s" % ("pi/n" if phase else "0"))
    return "\n".join(lines) + "\n"


def _outer_pair(rng, n: int, kind: str, rings: list, free: int):
    """Place ring `free` a few percent off an outer equilibrium radius, or
    return None when the balance scan finds no radius in [1.05, 6]."""
    roots = physics.outer_roots(n, rings, free, kind)
    if not roots:
        return None
    target = roots[int(rng.integers(len(roots)))]
    k, m, _, ph = rings[free]
    rings[free] = (k, m, target * (1.0 + rng.uniform(-0.04, 0.04)), ph)
    return rings


def _draw_solvable(rng, draw, n: int, kind: str, free: int) -> list:
    while True:
        rings = _outer_pair(rng, n, kind, draw(), free)
        if rings is not None:
            return rings


def _center_two_rings(rng, n: int):
    """Centre, ring at r = 1 and a staggered ring with a free radius."""
    def draw():
        return [("center", rng.uniform(3.0, 5.0), 0.0, 0.0),
                ("regular", rng.uniform(0.4, 0.6), 1.0, 0.0),
                ("regular", rng.uniform(0.8, 1.2), 1.8, math.pi / n)]
    return _draw_solvable(rng, draw, n, "homogeneous", 2)


def _vortex_two_rings(rng, n: int):
    def draw():
        return [("regular", rng.uniform(0.8, 1.2), 1.0, 0.0),
                ("regular", rng.uniform(0.8, 1.2), 1.8, math.pi / n)]
    return _draw_solvable(rng, draw, n, "vortex", 1)


# ---------------------------------------------------------------------------
# the workloads


def large_n(rng) -> list[Job]:
    # Chosen because the dense projector path dominates here:
    # assemble_global_basis is most of each job and the sigma tables alone
    # are 96 * 194^2 * 8 B ~ 29 MB, so basis work shows in both time and
    # peak memory (2N = 194, blocks <= 8).
    n = 48
    return [Job("large-n/%d" % i, "analyze", n, "homogeneous",
                _center_two_rings(rng, n), free=(2,))
            for i in range(8)]


def verify(rng) -> list[Job]:
    # Chosen because the invariant suite (projector algebra, J relations,
    # isotypic SVDs, equivariance over all 2n sigma matrices, the
    # finite-difference Hessian) is most of each job: the dense-oracle path
    # the roadmap keeps, exercising the same symbasis code as analyze.
    n = 32
    jobs = []
    for i in range(4):
        if i % 2 == 0:
            jobs.append(Job("verify/%d" % i, "verify", n, "homogeneous",
                            _center_two_rings(rng, n), free=(2,)))
        else:
            jobs.append(Job("verify/%d" % i, "verify", n, "vortex",
                            _vortex_two_rings(rng, n), free=(1,)))
    return jobs


def sweep(rng) -> list[Job]:
    # Chosen because many small jobs carry the per-job constants: config
    # parsing, report/CSV/SVG output (every job writes --out files) and the
    # solver's no-solution path.  Four families of 30 jobs each.
    jobs = []
    for i in range(30):
        # Maxwell's ring (Moeckel 1994, Roberts 2000): unit-mass 7-gon around
        # a central mass drawn log-uniformly across the stability threshold.
        mass = math.exp(rng.uniform(math.log(50.0), math.log(400.0)))
        jobs.append(Job("maxwell/%d" % i, "analyze", 7, "homogeneous",
                        [("center", mass, 0.0, 0.0), ("regular", 1.0, 1.0, 0.0)],
                        outputs=True,
                        closed_omega=physics.maxwell_omega(7, mass, 1.0, 1.0)))
    for i in range(30):
        # Regular vortex n-gons (Thomson/Havelock), n = 3..12.
        n = 3 + i % 10
        gam, radius = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        jobs.append(Job("ngon/%d" % i, "analyze", n, "vortex",
                        [("regular", gam, radius, 0.0)], outputs=True,
                        closed_omega=physics.vortex_ngon_omega(n, gam, radius)))
    for i in range(30):
        # Newtonian centre + ring, n = 3..12: Maxwell's closed form again.
        n = 3 + i % 10
        mass, m, radius = rng.uniform(0.5, 5.0), rng.uniform(0.2, 2.0), rng.uniform(0.5, 2.0)
        jobs.append(Job("center-ring/%d" % i, "analyze", n, "homogeneous",
                        [("center", mass, 0.0, 0.0), ("regular", m, radius, 0.0)],
                        outputs=True,
                        closed_omega=physics.maxwell_omega(n, mass, m, radius)))
    for i in range(30):
        # Nested staggered Newtonian pairs, n = 3..6, outer ring free.  When
        # the balance scan finds no equilibrium with r2 in [1.05, 6] (D_3
        # with outer/inner mass ratio above ~1.05) the solver is expected to
        # give up with exit 4.  Such a system still has an equilibrium with
        # the staggered ring inside (r2 < 1), which the solver sometimes
        # reaches from the start in [1.2, 2.0]; the checks accept that only
        # when the independent balance confirms it.  Every eighth job is a
        # D_3 pair in that band, so each seed has the same four such jobs;
        # the others draw the mass ratio from [0.3, 3] (D_3: [0.3, 0.85]).
        n = 3 + i % 4
        if i % 8 == 0:
            ratio = rng.uniform(1.2, 3.0)
        elif n == 3:
            ratio = math.exp(rng.uniform(math.log(0.3), math.log(0.85)))
        else:
            ratio = math.exp(rng.uniform(math.log(0.3), math.log(3.0)))
        rings = [("regular", 1.0, 1.0, 0.0), ("regular", ratio, 1.8, math.pi / n)]
        solved = _outer_pair(rng, n, "homogeneous", list(rings), 1)
        if solved is None:
            rings[1] = ("regular", ratio, rng.uniform(1.2, 2.0), math.pi / n)
        jobs.append(Job("nested/%d" % i, "analyze", n, "homogeneous",
                        solved or rings, free=(1,), outputs=True,
                        expect_exit=0 if solved else 4))
    return jobs


WORKLOADS = {
    "large-n": large_n,
    "verify": verify,
    "sweep": sweep,
}


def generate(name: str, seed: int, workdir: str) -> list[Job]:
    """Draw the workload's jobs from `seed` and write their config files."""
    jobs = WORKLOADS[name](np.random.default_rng(seed))
    os.makedirs(workdir, exist_ok=True)
    for i, job in enumerate(jobs):
        job.config = os.path.join(workdir, "job%03d.cfg" % i)
        with open(job.config, "w", encoding="utf-8") as fh:
            fh.write(_config_text(job))
        job.argv = [job.verb, "--config", job.config, "--format", "machine"]
        if job.outputs:
            job.out = os.path.join(workdir, "out%03d" % i)
            job.argv += ["--out", job.out]
    return jobs
