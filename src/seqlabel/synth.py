"""Synthetic traveller streams: a seeded random walker over waypoint nodes.

Stands in for private GPS traces.  Nodes are placed in the unit square and
linked to their nearest neighbours; the walker either stays put or moves to
a neighbour, preferring nodes closer to a time-of-day-dependent target
(work during weekday working hours, home otherwise).  Emissions mimic
minute-averaged GPS rows: noisy coordinates, day-of-week code, and the time
of day in hours.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import Feature
from .rng import derive_rng, sample_index
from .transform import Sequence

TRAVELLER_FEATURES = (
    Feature.numeric("lat"),
    Feature.numeric("lon"),
    Feature.categorical(7, "day"),
    Feature.numeric("hour"),
)


@dataclass(frozen=True)
class SynthTravellerConfig:
    n_nodes: int = 100
    n_steps: int = 10_000
    seed: int = 0
    degree: int = 4
    stay_prob: float = 0.6
    commute_strength: float = 6.0
    gps_noise: float = 0.002
    start_day: int = 0      # day-of-week code 0..6
    start_hour: float = 7.0

    def __post_init__(self):
        if self.n_nodes < 2:
            raise ValueError("n_nodes must be >= 2")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not (1 <= self.degree < self.n_nodes):
            raise ValueError("degree must be in 1..n_nodes-1")
        if not (0.0 <= self.stay_prob <= 1.0):
            raise ValueError("stay_prob must be in [0, 1]")
        if not (0 <= self.start_day <= 6):
            raise ValueError("start_day must be a code in 0..6")
        if not 0.0 <= self.gps_noise < np.inf:
            raise ValueError("gps_noise must be finite and >= 0")
        for name in ("commute_strength", "start_hour"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @staticmethod
    def from_settings(settings: dict) -> "SynthTravellerConfig":
        """The config of a settings mapping, strings read as their field's type."""
        known = {f.name: f.default for f in fields(SynthTravellerConfig)}
        for key in sorted(set(settings) - set(known)):
            raise ValueError(f"unknown traveller setting {key!r} (expected one of {list(known)})")
        return SynthTravellerConfig(**{k: type(known[k])(v) if isinstance(v, str) else v
                                       for k, v in settings.items()})


def synth_traveller(cfg: SynthTravellerConfig) -> Sequence:
    """Generate one traveller stream, deterministic under the config seed."""
    rng = derive_rng(cfg.seed, "synth-traveller")
    nodes = rng.random((cfg.n_nodes, 2))

    d2 = ((nodes[:, None, :] - nodes[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    neighbours = np.argsort(d2, axis=1)[:, : cfg.degree]

    home = int(rng.integers(cfg.n_nodes))
    work = int(np.argmax(((nodes - nodes[home]) ** 2).sum(axis=1)))

    state = home
    day = cfg.start_day
    minute = int(round(cfg.start_hour * 60)) % (24 * 60)
    emissions = []
    states = []
    for _ in range(cfg.n_steps):
        hour = minute / 60.0
        lat = nodes[state, 0] + rng.normal(0.0, cfg.gps_noise)
        lon = nodes[state, 1] + rng.normal(0.0, cfg.gps_noise)
        emissions.append((float(lat), float(lon), day, round(hour, 2)))
        states.append(state)

        if rng.random() >= cfg.stay_prob:
            working_hours = day < 5 and 8.0 <= hour < 17.0
            target = nodes[work] if working_hours else nodes[home]
            cand = neighbours[state]
            dist = np.sqrt(((nodes[cand] - target) ** 2).sum(axis=1))
            w = np.exp(-cfg.commute_strength * dist)
            state = int(cand[sample_index(w, rng)])

        minute += 1
        if minute >= 24 * 60:
            minute = 0
            day = (day + 1) % 7

    return Sequence(tuple(emissions), tuple(states), id=f"traveller-{cfg.seed}")
