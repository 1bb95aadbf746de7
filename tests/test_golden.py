"""Golden outputs: sha256 of the simulated files and result bundle for fixed seeded presets.

Criterion 11 shows that reruns agree with each other; these hashes show
that a refactor left the bytes of the outputs unchanged. A change that
alters outputs on purpose updates the hashes and says why in CHANGES.md.
"""

import hashlib
from dataclasses import replace

import pytest

from gaitpipe.cli import main
from gaitpipe.pointcloud import write_session
from gaitpipe.simulator import (
    SCENARIO_NAMES,
    PetSpec,
    SceneSpec,
    WalkerSpec,
    make_scenario,
    simulate,
    write_truth,
)

GOLDEN = {
    ("clinic_control", 7, "clinic"): {
        "session.jsonl": "0c25516e63810691807fdd2ef34417ec87814d22784f6a648457b41ee90e93e1",
        "walks.jsonl": "249d9f18e84f57f52d1ed9d4991d24e3c22164d980639f2338cc3899e5f3d5d1",
        "segments.csv": "df03a77865983bcf9742c9ae04783193c6d11c908ffe27b1a12da6f1c964a9f8",
        "report.json": "5aad90a683b52b88dabc0415cef0c0ce3489480f9f119b3cb2762e2847d5e654",
        "heatmap_walkway.csv": "a863d2a3ca78cf0f5b1a8bd87bad13acdae1699a20334f3ffa184b013a9ee6f2",
    },
    # The one valid segment overlaps the second resident's track and is
    # suppressed, so walks.jsonl is empty; the segments and the report
    # still pin both tracks.
    ("two_residents", 108, "home"): {
        "session.jsonl": "9e5152d818bc8308e5981c1d3b305aaa65ff7019cc96bcf71c32f7e8217f8950",
        "walks.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "segments.csv": "cc5f5e55d581e88bc81153ffb7dee8e20f1a16b667053df52666571787619718",
        "report.json": "3ebeb0c096eef0d94cd014d448b8bea9c11b685f86525728c843e71e0000928c",
        "heatmap_living.csv": "62783f6a87895b229f9b27aa5b2c0c2b1b14047522a3d2fda213b1c09c807c2e",
    },
    ("home_with_pet", 107, "home"): {
        "session.jsonl": "fbfcc7a3f0a83f00fe8af97122561a1b2d4005bf2381750bb5136f9af2f3deda",
        "walks.jsonl": "f0e662b9979542d2b5cf514d6223556445facac99c275a92b1606b74a435072e",
        "segments.csv": "765dbe72949827287249f2aa6f1c975e7c410601017f53ab1db976101573ef86",
        "report.json": "a84cb2b199e8387dc9874f968396068335e9d64f91a2d166f5f39d2a70b042b8",
        "heatmap_living.csv": "553b1574db434d2deb6518d175e53faac8dd75d578bdf7b52ae68aa6f748a73c",
    },
}

# What `gaitpipe simulate` writes for every preset at its default seed:
# the session, the ground truth and, for the clinic presets, the walk log.
GOLDEN_SIMULATE = {
    "clinic_control": {
        "session.jsonl": "d2a66f1145029caf7e34265f896c395062648df9c36b20db6ac47c62df93005d",
        "truth.jsonl": "db538addcf287ff4082ae7f8a1360d0af1e5e3920a73acb5c02db872db49c0fc",
        "walklog.json": "64415079553e5e8da5636c64ee9d70506717924c8b643fb09d756aa7a8d743df",
    },
    "clinic_fast": {
        "session.jsonl": "2e5897fa7e2941dc841893ac0158e73227e06cb1087db407368257679fdf0a9f",
        "truth.jsonl": "0581922bc15c05a0965ef9ffa93720ae849479d2993f9b98fd97a1a61750e5cd",
        "walklog.json": "347b4b705917c719b6fe2d77e80536dc9a6771bd4a4cf7f4d955662772cbefb0",
    },
    "clinic_with_assistant": {
        "session.jsonl": "accecdf41b397603ed39bbf3727ee0b1cfc4217bfcde760f1c299a9e6ad6d096",
        "truth.jsonl": "17863b5a3b65762f0b7c540607fa2c4a5b4b3a4034637bc994b9fe9063a10a76",
        "walklog.json": "9bb585ecd24f872021485f8bac08f7c9e3e232c0ca71365f64d3de6f4e1dbd5e",
    },
    "home_radial": {
        "session.jsonl": "41f90e2d33195ffb6c3a83fc1e94cbbc997f278ebe5a6314404538009255c792",
        "truth.jsonl": "3763a033eeb0af19bd61936a24b6a0cb0565dda300a89e02ed9e772a2570b33b",
    },
    "home_perpendicular": {
        "session.jsonl": "8359b0013f5e583d820b6c87a7fca5c9dc53155f36b6ce1d4c63a912e5fd9f5d",
        "truth.jsonl": "60ded3b003d37dea03fb4dedfe40ddb4164d21995e60b9dff43551a5f2e3f72a",
    },
    "home_L_shape": {
        "session.jsonl": "3a2eaeb776e7a622cc174488a6731578486a88973fcb708b7323fd1fcaa16318",
        "truth.jsonl": "c7804a212902a5297d59d17fcc1d1eac1fdbceb109e5c352eefad7cf9935af53",
    },
    "home_with_pet": {
        "session.jsonl": "fbfcc7a3f0a83f00fe8af97122561a1b2d4005bf2381750bb5136f9af2f3deda",
        "truth.jsonl": "cc85c535d7ff01345c44335d3b96ea6b28b65102b3ec03f82fe073bb36cea4c4",
    },
    "two_residents": {
        "session.jsonl": "9e5152d818bc8308e5981c1d3b305aaa65ff7019cc96bcf71c32f7e8217f8950",
        "truth.jsonl": "644ca7f59239421288d17a73c97c5ba187dc8b047b81d0e2ac983e9238122072",
    },
}

# `home_radial` with every walker's points per scatterer group x10, as the
# benchmark's dense scenes are built: 150-250 points per occupied frame.
# Run with --dump-tracks, so tracks.jsonl pins the tracker's own bytes.
DENSE = ("home_radial", 104, 10)
GOLDEN_DENSE = {
    "tracks.jsonl": "01f641ce3d2292a5197381d3043939fcdb0141a7a2f317a37bed931d28fdf751",
    "session.jsonl": "308b3502b2c6de82b98f864da0819c7d04c4201a527c226057717ca8ebb4d766",
    "walks.jsonl": "19c6fe4553b004fb987e4230c5b6ac08fb5e100f4181c6af234f4b14d223c5ed",
    "segments.csv": "d340d3fc864efee15cf1767a6da3c49c50cbc89b1e1e7e50ec636398b6580f8a",
    "report.json": "32bb95cd538f7a951e24ff3a4012c3ac29b80bbcbbfe22be84e7db55c60d6fee",
    "heatmap_living.csv": "7dba2473ea0f74d8dbe8a063dfc0197fe67b0f7999baf563ae177803239010ff",
}

# A scene no preset covers: odd arm and leg counts (so the two arms and
# the two legs draw different numbers of points), a pet, no speed
# oscillation, no dropout and a repeated waypoint (a zero-length segment).
ODD_SCENE = SceneSpec(
    name="odd",
    site="home",
    duration=10.0,
    seed=31,
    walkers=(WalkerSpec(
        walker_id="w",
        path=((0.2, 6.0), (0.2, 3.5), (0.2, 3.5), (1.8, 2.0)),
        base_speed=1.1,
        step_period=0.5,
        speed_amp=0.0,
        start_time=0.7,
        points_torso=7,
        points_arms=5,
        points_legs=7,
        dropout=0.0,
    ),),
    pets=(PetSpec(center=(-1.5, 3.0)),),
)
GOLDEN_ODD = {
    "session.jsonl": "9492be2e12447d14f7b99e2b1b2b1f0c05eccf21f4a7d5805bd91fabc41af515",
    "truth.jsonl": "e4a9a5ef9da60947c42e09fa01cb98c7df522287e2150938c6851fff839159a6",
}


def _process_digests(tmp_path, session_path, stem, mode, dump_tracks=False):
    # In clinic mode the walk log is the <stem>.walklog.json beside the session.
    out = tmp_path / "out"
    args = ["process", "--input", str(session_path), "--mode", mode, "--out", str(out)]
    files = {
        "session.jsonl": session_path,
        "walks.jsonl": out / stem / "walks.jsonl",
        "segments.csv": out / stem / "segments.csv",
        "report.json": out / "report.json",
    }
    if dump_tracks:
        args.append("--dump-tracks")
        files["tracks.jsonl"] = out / stem / "tracks.jsonl"
    assert main(args) == 0
    files.update((p.name, p) for p in out.glob("heatmap_*.csv"))  # one per room
    return {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in files.items()}


def test_golden_simulate_covers_every_preset():
    assert set(GOLDEN_SIMULATE) == set(SCENARIO_NAMES)


@pytest.mark.parametrize("scenario", sorted(GOLDEN_SIMULATE))
def test_golden_simulate(tmp_path, scenario):
    assert main(["simulate", "--scenario", scenario, "--out", str(tmp_path)]) == 0
    digests = {
        p.name.split(".", 1)[1]: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.iterdir()
    }
    assert digests == GOLDEN_SIMULATE[scenario]


@pytest.mark.parametrize("scenario,seed,mode", sorted(GOLDEN), ids=lambda v: str(v))
def test_golden_outputs(tmp_path, scenario, seed, mode):
    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", scenario, "--seed", str(seed),
                 "--out", str(sim)]) == 0
    stem = f"{scenario}-{seed}"
    digests = _process_digests(tmp_path, sim / f"{stem}.session.jsonl", stem, mode)
    assert digests == GOLDEN[(scenario, seed, mode)]


def test_golden_odd_scene(tmp_path):
    session, truth = simulate(ODD_SCENE)
    write_session(session, tmp_path / "odd.session.jsonl")
    write_truth(truth, tmp_path / "odd.truth.jsonl")
    digests = {
        p.name.split(".", 1)[1]: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.iterdir()
    }
    assert digests == GOLDEN_ODD


def test_golden_dense_outputs(tmp_path):
    scenario, seed, scale = DENSE
    scene = make_scenario(scenario, seed=seed)
    scene = replace(scene, walkers=tuple(
        replace(w, points_torso=w.points_torso * scale, points_arms=w.points_arms * scale,
                points_legs=w.points_legs * scale)
        for w in scene.walkers
    ))
    session, _ = simulate(scene)
    stem = f"{scenario}-dense"
    path = tmp_path / f"{stem}.session.jsonl"
    write_session(session, path)
    assert _process_digests(tmp_path, path, stem, "home", dump_tracks=True) == GOLDEN_DENSE
