"""Seeded workload scenes, built from the simulator's public spec types.

Each workload turns one integer seed into a list of cases: a scene to
simulate, the mode `gaitpipe process` runs it in, and the walks the
benchmark expects to be measured. Nothing here changes the simulator; the
dense scenes only set public `SceneSpec`/`WalkerSpec` fields.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from gaitpipe.simulator import SceneSpec, WalkerSpec, make_scenario

WORKLOADS = ("clinic_sweep", "home_dense")

CLINIC_SESSIONS = 80
DENSE_SCALE = 10          # points per scatterer group, times the simulator default


@dataclass(frozen=True)
class Case:
    """One session of a workload.

    `expected` holds the walker ids whose step length should be measured:
    in clinic mode the logged walks, in home mode the radially aligned
    passes that no other walker overlaps in time.
    """

    stem: str
    scene: SceneSpec
    mode: str
    expected: tuple[str, ...]


def _home_gait(rng: np.random.Generator) -> tuple[float, float]:
    base_speed = float(rng.uniform(0.8, 1.2))
    step_period = float(rng.uniform(0.5, min(0.65, 0.9 / base_speed)))
    return base_speed, step_period


def _scene_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _clinic_sweep(rng: np.random.Generator) -> list[Case]:
    # Gait ranges of acceptance criteria 01 (control) and 02 (fast).
    cases = []
    for i in range(CLINIC_SESSIONS):
        if i % 2 == 0:
            name = "clinic_control"
            base_speed = float(rng.uniform(0.6, 1.3))
            step_period = float(rng.uniform(0.45, min(0.7, 0.9 / base_speed)))
        else:
            name = "clinic_fast"
            base_speed = float(rng.uniform(1.4, 1.7))
            step_period = float(rng.uniform(0.3, min(0.45, 0.95 / base_speed)))
        scene = make_scenario(
            name, seed=_scene_seed(rng), base_speed=base_speed,
            step_period=step_period, n_walks=1,
        )
        logged = tuple(f"walk{e.walk_index}" for e in scene.walklog.entries)
        cases.append(Case(f"{i:03d}-{name}", scene, "clinic", logged))
    return cases


def _dense(walker: WalkerSpec) -> WalkerSpec:
    return replace(
        walker,
        points_torso=walker.points_torso * DENSE_SCALE,
        points_arms=walker.points_arms * DENSE_SCALE,
        points_legs=walker.points_legs * DENSE_SCALE,
    )


def _home_dense(rng: np.random.Generator) -> list[Case]:
    # A radial approach, a radial recede and a two-residents pair, one
    # session each, so that a round of calls is split into three shorter
    # ones. The pair's radial walk overlaps the crossing resident, so home
    # mode suppresses it and it is not expected. Gait is the presets'
    # default: varying it would change the share of dense frames, and with
    # it the timing, from seed to seed.
    x = float(rng.uniform(-0.5, 0.5))
    approach = (WalkerSpec("pass0", ((x, 5.8), (x, 1.2)), start_time=1.0),)
    recede = (WalkerSpec("pass1", ((x, 1.2), (x, 5.8)), start_time=1.0),)
    x = float(rng.uniform(0.0, 0.6))
    pair = (
        WalkerSpec("resident1", ((x, 5.8), (x, 1.3)), start_time=1.0),
        WalkerSpec("resident2", ((-2.6, 4.6), (2.6, 4.9)), 0.9, 0.6,
                   start_time=float(rng.uniform(1.0, 2.0))),
    )
    cases = []
    for stem, walkers, duration, expected in (
        ("dense-approach", approach, 8.0, ("pass0",)),
        ("dense-recede", recede, 8.0, ("pass1",)),
        ("dense-pair", pair, 11.0, ()),
    ):
        scene = SceneSpec(
            name=stem, site="home", duration=duration, seed=_scene_seed(rng),
            walkers=tuple(_dense(w) for w in walkers), room_label=stem,
        )
        cases.append(Case(stem, scene, "home", expected))
    return cases


def build(workload: str, seed: int) -> list[Case]:
    """The cases of a workload; the same (workload, seed) gives the same cases."""
    builders = {
        "clinic_sweep": _clinic_sweep,
        "home_dense": _home_dense,
    }
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    return builders[workload](rng)
