"""Synthetic gait-scene generator with exact ground truth.

Walkers move along waypoint paths with a cyclic forward-speed profile
(v = base_speed + speed_amp * sin(2*pi*t/step_period - pi/2), one crest
per step, starting at a trough) attenuated by smoothstep ramps at the
start and end of the walk, each max(step_period/2, base_speed/1.8) s long
(`WalkerSpec.ramp_time`). Each radar frame scatters points over the
torso, arms, and legs, with Doppler equal to the radial projection of
each scatterer's velocity plus noise; the two arms swing counter-phase so
the backswing arm's Doppler crosses zero and flips sign, exercising the
torso sign gate. Pets are small, slow, low-elevation scatterer groups
circling a center.

A walker's spec fields are its path, gait (`base_speed`, `step_period`
of at least `MIN_STEP_PERIOD`, `speed_amp`), start time, points per
scatterer group, Doppler noise and dropout; `WalkerSpec` rejects a
non-finite number among them and a path too short for the ramps. A pet's
only field is its center, which must be finite; a
scene's are its walkers, pets, duration, seed, frame rate and room
label. The rest of a scene is fixed by the module constants below: the
phase of the speed cycle, the torso band, the arm swing, the position
noise, the pets' motion and returns, and the device id.

Everything is driven by one seeded generator, so a scene spec plus seed
reproduces its session byte for byte. The nominal step length of a walker
is base_speed * step_period: over full cycles the sinusoid integrates to
zero, so the distance between consecutive speed crests is exactly that.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .pointcloud import Session, atomic_write_text, build_session, check_format, json_float
from .segmenter import WALKWAY_END, WALKWAY_START, WalkEntry, WalkLog

TRUTH_FORMAT = "gaitpipe-truth"
TRUTH_VERSION = 1
DEVICE_ID = "SIM"
MIN_DOPPLER = 0.05  # static-clutter model: slower returns are not reported
_NO_POINTS = np.empty((0, 4))

WALK_PHASE = -math.pi / 2   # phase of the speed cycle: it starts at its trough
TORSO_HALF_BAND = 0.2       # torso scatterer |z| spread, meters
ARM_SWING_GAIN = 1.2        # arm swing amplitude, times base_speed
NOISE_POS = 0.08            # scatterer position noise, meters
MIN_STEP_PERIOD = 0.1       # s; bounds a walk's step events, one per period

PET_WANDER_RADIUS = 0.4     # m, radius of the circle a pet walks
PET_SPEED = 0.25            # m/s
PET_Z_LOW, PET_Z_HIGH = -1.05, -0.85  # m, elevation band of pet returns
PET_POINTS = 3
PET_NOISE_DOPPLER = 0.1     # m/s


@dataclass(frozen=True)
class WalkerSpec:
    walker_id: str
    path: tuple[tuple[float, float], ...]
    base_speed: float = 1.0       # m/s
    step_period: float = 0.55     # s, one speed crest per step
    speed_amp: float = 0.25       # m/s oscillation amplitude
    start_time: float = 1.0       # s into the session
    points_torso: int = 8
    points_arms: int = 4
    points_legs: int = 6
    noise_doppler: float = 0.12   # m/s
    dropout: float = 0.02         # per-point drop probability

    def __post_init__(self):
        if len(self.path) < 2:
            raise ValueError("walker path needs at least 2 waypoints")
        if not np.isfinite(self.path).all():
            raise ValueError(f"walker path must be finite, got {self.path}")
        if not self.base_speed > self.speed_amp >= 0:
            raise ValueError("need base_speed > speed_amp >= 0 so the torso never reverses")
        if not self.step_period >= MIN_STEP_PERIOD:
            raise ValueError(
                f"step_period must be at least {MIN_STEP_PERIOD} s, got {self.step_period}"
            )
        if self.base_speed * self.step_period > 1.0 + 1e-9:
            raise ValueError("nominal step length base_speed*step_period exceeds 1 m")
        if not 0 <= self.start_time < math.inf:
            raise ValueError(f"start_time must be finite and >= 0, got {self.start_time}")
        if not 0 <= self.noise_doppler < math.inf:
            raise ValueError(f"noise_doppler must be finite and >= 0, got {self.noise_doppler}")
        if not 0 <= self.dropout <= 1:
            raise ValueError(f"dropout must be in [0, 1], got {self.dropout}")
        counts = (self.points_torso, self.points_arms, self.points_legs)
        if not all(isinstance(n, (int, np.integer)) and n >= 0 for n in counts):
            raise ValueError(f"points per scatterer group must be integers >= 0, got {counts}")
        # Each ramp covers about base_speed * ramp_time / 2, and the walk
        # needs a cruise at least that long between them.
        ramps = self.base_speed * self.ramp_time
        if _arc_lengths(self.path)[-1] <= ramps + ramps / 2:
            raise ValueError("path too short for the ramp profile")

    @property
    def ramp_time(self) -> float:
        """Smoothstep ramp duration: ~1.8 m/s^2 to cruise, but at least half a step."""
        return max(self.step_period / 2, self.base_speed / 1.8)

    @property
    def true_step_length(self) -> float:
        return self.base_speed * self.step_period


@dataclass(frozen=True)
class PetSpec:
    center: tuple[float, float]

    def __post_init__(self):
        if not np.isfinite(self.center).all():
            raise ValueError(f"pet center must be finite, got {self.center}")


@dataclass(frozen=True)
class SceneSpec:
    name: str
    site: str
    duration: float
    seed: int
    walkers: tuple[WalkerSpec, ...] = ()
    pets: tuple[PetSpec, ...] = ()
    frame_rate: float = 10.0
    room_label: str = "room"
    walklog: WalkLog | None = None

    def __post_init__(self):
        if not (0 < self.duration < math.inf and 0 < self.frame_rate < math.inf):
            raise ValueError("duration and frame_rate must be finite and positive")
        if self.duration * self.frame_rate == math.inf:  # the frame count
            raise ValueError(f"duration x frame_rate must be finite, got "
                             f"{self.duration} s x {self.frame_rate} fps")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class TruthSample:
    t: float
    x: float
    y: float
    speed: float
    is_step_peak: bool


@dataclass(frozen=True)
class WalkerTruth:
    walker_id: str
    true_step_length: float
    base_speed: float
    step_period: float
    t_start: float
    t_end: float
    step_times: tuple[float, ...]
    samples: tuple[TruthSample, ...]


@dataclass(frozen=True)
class GroundTruth:
    scene_name: str
    seed: int
    walkers: tuple[WalkerTruth, ...]


def _smoothstep(u: float) -> float:
    u = min(1.0, max(0.0, u))
    return u * u * (3.0 - 2.0 * u)


def _arc_lengths(path) -> np.ndarray:
    """Arc length at each waypoint of a path, from 0 at the first."""
    pts = np.asarray(path, dtype=float)
    return np.concatenate([[0.0], np.cumsum(np.hypot(*(pts[1:] - pts[:-1]).T))])


def _cumulative_trapezoid(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    return np.concatenate([[0.0], np.cumsum((v[1:] + v[:-1]) / 2 * np.diff(t))])


class _WalkKinematics:
    """Arc-length motion of one walker along its path.

    Cruise-phase positions come from the closed-form integral of the speed
    profile; the ramp phases are integrated on a fine grid.
    """

    _DT = 0.002

    def __init__(self, spec: WalkerSpec):
        self.spec = spec
        self.pts = np.asarray(spec.path, dtype=float)
        self.cum = _arc_lengths(spec.path)
        self.length = float(self.cum[-1])
        self.t_ramp = spec.ramp_time
        self.omega = 2.0 * math.pi / spec.step_period
        v0, amp, phi = spec.base_speed, spec.speed_amp, WALK_PHASE

        # Both ramps on one grid: the smoothstep envelope on the way in, its
        # complement on the way out.
        self._grid = np.arange(0.0, self.t_ramp + self._DT, self._DT)
        ramp = np.array([_smoothstep(u / self.t_ramp) for u in self._grid])
        self._s_in = _cumulative_trapezoid(
            ramp * (v0 + amp * np.sin(self.omega * self._grid + phi)), self._grid
        )
        self.s_ramp_in = float(self._s_in[-1])

        # Cruise: closed form, solve for the ramp-out trigger.
        self._cos_ref = math.cos(self.omega * self.t_ramp + phi)
        target = self.length - v0 * self.t_ramp / 2
        tau1 = self.t_ramp + (target - self.s_ramp_in) / v0
        for _ in range(3):  # Newton refinement against the oscillation term
            err = self._cruise_s(tau1) - target
            tau1 -= err / max(v0 - amp, 1e-6)
        self.tau1 = max(tau1, self.t_ramp)

        self._s_out = self._cruise_s(self.tau1) + _cumulative_trapezoid(
            (1.0 - ramp) * (v0 + amp * np.sin(self.omega * (self.tau1 + self._grid) + phi)),
            self._grid,
        )
        self.tau_end = self.tau1 + self.t_ramp
        self.t_start = spec.start_time
        self.t_end = spec.start_time + self.tau_end

        # Step events: speed crests of the underlying cycle during the walk,
        # the first half a step in.
        crest0 = (math.pi / 2 - phi) / self.omega
        crests = (crest0 + k * spec.step_period for k in itertools.count())
        walk = itertools.takewhile(lambda tc: tc <= self.tau_end, crests)
        self.step_times = [spec.start_time + tc for tc in walk]

    def _cruise_s(self, tau: float) -> float:
        spec = self.spec
        return (
            self.s_ramp_in
            + spec.base_speed * (tau - self.t_ramp)
            - (spec.speed_amp / self.omega)
            * (math.cos(self.omega * tau + WALK_PHASE) - self._cos_ref)
        )

    def active(self, t: float) -> bool:
        return self.t_start <= t <= self.t_end

    def arc_state(self, t: float) -> tuple[float, float]:
        """(arc position, instantaneous speed) at session time t."""
        tau = t - self.t_start
        spec = self.spec
        base = spec.base_speed + spec.speed_amp * math.sin(self.omega * tau + WALK_PHASE)
        if tau <= self.t_ramp:
            s = float(np.interp(tau, self._grid, self._s_in))
            v = _smoothstep(tau / self.t_ramp) * base
        elif tau <= self.tau1:
            s = self._cruise_s(tau)
            v = base
        else:
            u = tau - self.tau1
            s = float(np.interp(u, self._grid, self._s_out))
            v = (1.0 - _smoothstep(u / self.t_ramp)) * base
        return min(s, self.length), v

    def position(self, s: float) -> tuple[np.ndarray, np.ndarray]:
        """(xy point, unit direction) at arc position s."""
        s = min(max(s, 0.0), self.length)
        i = int(np.searchsorted(self.cum, s, side="right")) - 1
        i = min(max(i, 0), len(self.pts) - 2)
        seg = self.pts[i + 1] - self.pts[i]
        seg_len = float(np.hypot(*seg))
        u = 0.0 if seg_len == 0 else (s - self.cum[i]) / seg_len
        return self.pts[i] + u * seg, seg / max(seg_len, 1e-12)


def _scatter_group(
    rng: np.random.Generator,
    center: np.ndarray,
    n: int,
    pos_sigma: float,
    z_low: float,
    z_high: float,
    velocity_xy: np.ndarray,
    noise_doppler: float,
    dropout: float,
) -> np.ndarray:
    """Up to n scatterer returns around center, as (m, 4) rows x, y, z, s."""
    if n <= 0:
        return _NO_POINTS
    xy = center + rng.normal(0.0, pos_sigma, size=(n, 2))
    z = rng.uniform(z_low, z_high, size=n)
    pts3 = np.column_stack([xy, z])
    # The radial projection of the group's velocity onto each point's unit vector.
    r = np.linalg.norm(pts3, axis=1)
    radial = (pts3 @ np.array([velocity_xy[0], velocity_xy[1], 0.0])) / np.where(r < 1e-9, 1e-9, r)
    doppler = radial + rng.normal(0.0, noise_doppler, size=n)
    rows = np.concatenate([pts3, doppler[:, None]], axis=1)
    return rows[(rng.random(n) >= dropout) & (np.abs(doppler) >= MIN_DOPPLER) & (xy[:, 1] >= 0)]


def simulate(scene: SceneSpec) -> tuple[Session, GroundTruth]:
    """Generate the session plus per-walker ground truth for a scene."""
    rng = np.random.default_rng(scene.seed)
    kinematics = [_WalkKinematics(w) for w in scene.walkers]

    n_frames = int(round(scene.duration * scene.frame_rate))
    truth_samples: list[list[TruthSample]] = [[] for _ in scene.walkers]
    # Frame positions past the last frame flag nothing, and may overflow.
    peak_flags = [{round(f) for f in (tc * scene.frame_rate for tc in kin.step_times) if f < n_frames}
                  for kin in kinematics]

    frames = []
    for idx in range(n_frames):
        t = idx / scene.frame_rate
        pts: list[np.ndarray] = [_NO_POINTS]
        for w_i, (spec, kin) in enumerate(zip(scene.walkers, kinematics)):
            if not kin.active(t):
                continue
            s, speed = kin.arc_state(t)
            center, direction = kin.position(s)
            truth_samples[w_i].append(TruthSample(
                t=round(t, 6), x=float(center[0]), y=float(center[1]), speed=speed,
                is_step_peak=idx in peak_flags[w_i],
            ))

            # Two arms anti-phase at the stride period: the backswing arm's
            # Doppler flips sign (rejected by the torso gate), the forward
            # arm reads faster than the torso.
            tau = t - kin.t_start
            swing = _smoothstep(tau / kin.t_ramp) * (ARM_SWING_GAIN * spec.base_speed)
            swing *= math.sin(kin.omega * tau / 2 + WALK_PHASE)
            leg_speeds = [
                max(0.0, 1.0 + 1.2 * math.sin(kin.omega * tau + WALK_PHASE + math.pi * leg)) * speed
                for leg in (0, 1)
            ]
            half_arms, half_legs = spec.points_arms // 2, spec.points_legs // 2
            # Per part: points, position noise, z band and speed. Hands reach
            # hip level; the legs fill z from the hips down, keeping the
            # person one density-connected cluster.
            parts = (
                (spec.points_torso, NOISE_POS, -TORSO_HALF_BAND, TORSO_HALF_BAND, speed),
                (half_arms, 1.5 * NOISE_POS, -0.5, 0.35, speed + swing),
                (spec.points_arms - half_arms, 1.5 * NOISE_POS, -0.5, 0.35, speed - swing),
                (half_legs, NOISE_POS, -1.0, -0.15, leg_speeds[0]),
                (spec.points_legs - half_legs, NOISE_POS, -1.0, -0.15, leg_speeds[1]),
            )
            for n, pos_sigma, z_low, z_high, part_speed in parts:
                pts.append(_scatter_group(
                    rng, center, n, pos_sigma, z_low, z_high,
                    part_speed * direction, spec.noise_doppler, spec.dropout,
                ))

        for pet in scene.pets:
            ang = PET_SPEED / PET_WANDER_RADIUS * t
            center = np.asarray(pet.center) + PET_WANDER_RADIUS * np.array(
                [math.cos(ang), math.sin(ang)]
            )
            velocity = PET_SPEED * np.array([-math.sin(ang), math.cos(ang)])
            pts.append(_scatter_group(
                rng, center, PET_POINTS, 0.05,
                PET_Z_LOW, PET_Z_HIGH,
                velocity, PET_NOISE_DOPPLER, 0.0,
            ))

        frames.append((t, np.concatenate(pts)))

    session = build_session(
        frame_rate=scene.frame_rate,
        site=scene.site,
        room_label=scene.room_label,
        device_id=DEVICE_ID,
        frames=frames,
    )
    walkers_truth = tuple(
        WalkerTruth(
            walker_id=spec.walker_id,
            true_step_length=spec.true_step_length,
            base_speed=spec.base_speed,
            step_period=spec.step_period,
            t_start=kin.t_start,
            t_end=kin.t_end,
            step_times=tuple(kin.step_times),
            samples=tuple(samples),
        )
        for spec, kin, samples in zip(scene.walkers, kinematics, truth_samples)
    )
    return session, GroundTruth(scene_name=scene.name, seed=scene.seed, walkers=walkers_truth)


def write_truth(truth: GroundTruth, path: str | os.PathLike) -> None:
    header = {
        "format": TRUTH_FORMAT,
        "version": TRUTH_VERSION,
        "scene": truth.scene_name,
        "seed": truth.seed,
        "walkers": [
            {
                "id": w.walker_id,
                "true_step_length": round(w.true_step_length, 6),
                "base_speed": round(w.base_speed, 6),
                "step_period": round(w.step_period, 6),
                "t_start": round(w.t_start, 6),
                "t_end": round(w.t_end, 6),
                "step_times": [round(t, 6) for t in w.step_times],
            }
            for w in truth.walkers
        ],
    }
    lines = [json.dumps(header, sort_keys=True)]
    for w in truth.walkers:
        for s in w.samples:
            lines.append(
                json.dumps(
                    {
                        "t": round(s.t, 6),
                        "walker_id": w.walker_id,
                        "x": round(s.x, 6),
                        "y": round(s.y, 6),
                        "speed": round(s.speed, 6),
                        "is_step_peak": s.is_step_peak,
                    },
                    sort_keys=True,
                )
            )
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_truth_header(path: str | os.PathLike) -> dict:
    """Read a ground-truth header; ValueError says what is wrong with it."""
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
    check_format(header, TRUTH_FORMAT, TRUTH_VERSION, "ground-truth")
    walkers = header.get("walkers")
    if not walkers or not isinstance(walkers, list) or not all(isinstance(w, dict) for w in walkers):
        raise ValueError("'walkers' must be a non-empty list of objects")
    for k, walker in enumerate(walkers):
        for key in ("t_start", "t_end", "true_step_length"):
            walker[key] = json_float(walker.get(key), f"walker {k}: {key!r}")
    return header


PARTICIPANT = "P01"          # the one participant of a clinic preset's walk log
CLINIC_WALK_GAP = 16.0       # s between the starts of consecutive logged walks


def _clinic_walklog(walks: list[tuple[WalkerSpec, str, int]]) -> WalkLog:
    entries = tuple(
        WalkEntry(
            participant=PARTICIPANT,
            walk_index=index,
            walk_type=walk_type,
            t_start=spec.start_time,
            reference_step_length=spec.true_step_length,
        )
        for spec, walk_type, index in walks
    )
    return WalkLog(entries=entries, g_s=WALKWAY_START, g_e=WALKWAY_END)


def _build_clinic(
    name: str,
    seed: int,
    base_speed: float,
    step_period: float,
    walk_type: str,
    n_walks: int,
    with_assistant: bool = False,
    noise_doppler: float = WalkerSpec.noise_doppler,
) -> SceneSpec:
    walkers = []
    logged = []
    t = 2.0
    for w in range(n_walks):
        walk = WalkerSpec(
            walker_id=f"walk{w}",
            path=(WALKWAY_START, WALKWAY_END),
            base_speed=base_speed,
            step_period=step_period,
            start_time=t,
            noise_doppler=noise_doppler,
        )
        walkers.append(walk)
        logged.append((walk, walk_type, w))
        walk_time = 4.0 / base_speed + 2.0
        if w + 1 < n_walks:
            # Walk back to the start, laterally offset off the walkway.
            walkers.append(
                WalkerSpec(
                    walker_id=f"return{w}",
                    path=((0.35, 2.03), (0.35, 6.03)),
                    base_speed=0.9 * base_speed,
                    step_period=step_period,
                    start_time=t + walk_time,
                )
            )
        t += CLINIC_WALK_GAP
    if with_assistant:
        walkers.append(
            WalkerSpec(
                walker_id="assistant",
                path=((1.5, 6.3), (1.5, 2.3)),
                base_speed=0.95 * base_speed,
                step_period=step_period * 1.05,
                start_time=2.6,
            )
        )
    duration = t - CLINIC_WALK_GAP + 4.0 / base_speed + 4.0
    return SceneSpec(
        name=name,
        site="clinic",
        room_label="walkway",
        duration=duration,
        seed=seed,
        walkers=tuple(walkers),
        walklog=_clinic_walklog(logged),
    )


def _build_home(
    name: str,
    seed: int,
    passes: list[tuple[tuple[tuple[float, float], ...], float]],
    base_speed: float,
    step_period: float,
    pets: tuple[PetSpec, ...] = (),
    room_label: str = "living",
    concurrent: tuple[WalkerSpec, ...] = (),
) -> SceneSpec:
    walkers = [
        WalkerSpec(
            walker_id=f"pass{i}",
            path=path,
            base_speed=base_speed,
            step_period=step_period,
            start_time=start,
        )
        for i, (path, start) in enumerate(passes)
    ] + list(concurrent)
    t_end = max(start + float(_arc_lengths(path)[-1]) / (base_speed * 0.8)
                for path, start in passes)
    return SceneSpec(
        name=name,
        site="home",
        room_label=room_label,
        duration=t_end + 3.0,
        seed=seed,
        walkers=tuple(walkers),
        pets=pets,
    )


_DEFAULT_GAIT = {"base_speed": WalkerSpec.base_speed, "step_period": WalkerSpec.step_period}
_RADIAL_PASSES = [
    (((0.3, 5.8), (0.3, 1.2)), 1.5),
    (((0.3, 1.2), (0.3, 5.8)), 9.5),
]

# Preset name -> (default seed, builder, builder arguments).
_PRESETS = {
    "clinic_control": (101, _build_clinic, {
        **_DEFAULT_GAIT, "walk_type": "control", "n_walks": 2,
    }),
    # Fast gait reads messier: the torso pitches and dwell per frame
    # shrinks, widening the measured step-time distribution around R.
    "clinic_fast": (102, _build_clinic, {
        "base_speed": 1.45, "step_period": 0.45, "walk_type": "fast", "n_walks": 2,
        "noise_doppler": 0.22,
    }),
    "clinic_with_assistant": (103, _build_clinic, {
        **_DEFAULT_GAIT, "walk_type": "control", "n_walks": 1, "with_assistant": True,
    }),
    "home_radial": (104, _build_home, {**_DEFAULT_GAIT, "passes": _RADIAL_PASSES}),
    "home_perpendicular": (105, _build_home, {
        **_DEFAULT_GAIT,
        "passes": [
            (((-2.8, 3.5), (2.8, 3.5)), 1.5),
            (((2.8, 3.5), (-2.8, 3.5)), 10.5),
        ],
        "room_label": "hallway",
    }),
    "home_L_shape": (106, _build_home, {
        **_DEFAULT_GAIT, "passes": [(((0.5, 5.6), (0.5, 1.6), (3.2, 1.6)), 1.5)],
    }),
    "home_with_pet": (107, _build_home, {
        **_DEFAULT_GAIT, "passes": _RADIAL_PASSES, "pets": (PetSpec(center=(2.0, 2.5)),),
    }),
    "two_residents": (108, _build_home, {
        **_DEFAULT_GAIT,
        "passes": [(((0.4, 5.8), (0.4, 1.3)), 1.5)],
        "concurrent": (WalkerSpec(
            walker_id="resident2",
            path=((-2.6, 4.6), (2.6, 4.9)),
            base_speed=0.9,
            step_period=0.6,
            start_time=1.8,
        ),),
    }),
}

SCENARIO_NAMES = tuple(_PRESETS)


def make_scenario(
    name: str,
    seed: int | None = None,
    base_speed: float | None = None,
    step_period: float | None = None,
    n_walks: int | None = None,
) -> SceneSpec:
    """Build a named preset scene, optionally overriding the gait parameters.

    An override that is not None replaces the preset's builder argument of
    the same name. Only clinic presets take `n_walks`, which must be at
    least 1; home presets have fixed passes, so an `n_walks` override on
    one raises ValueError. An unknown name raises KeyError.
    """
    default_seed, build, args = _PRESETS[name]
    if n_walks is not None:
        if "n_walks" not in args:
            raise ValueError(f"n_walks applies to clinic presets only, not {name!r}")
        if n_walks < 1:
            raise ValueError(f"n_walks must be at least 1, got {n_walks}")
    overrides = {"base_speed": base_speed, "step_period": step_period, "n_walks": n_walks}
    args = {**args, **{k: v for k, v in overrides.items() if v is not None and k in args}}
    return build(name, default_seed if seed is None else seed, **args)
