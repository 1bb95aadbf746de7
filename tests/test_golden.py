"""Golden outputs: sha256 of the session file and result bundle for fixed seeded presets.

Criterion 11 shows that reruns agree with each other; these hashes show
that a refactor left the bytes of the outputs unchanged. A change that
alters outputs on purpose updates the hashes and says why in CHANGES.md.
"""

import hashlib
from dataclasses import replace

import pytest

from gaitpipe.cli import main
from gaitpipe.pointcloud import write_session
from gaitpipe.simulator import make_scenario, simulate

GOLDEN = {
    ("clinic_control", 7, "clinic"): {
        "session.jsonl": "0c25516e63810691807fdd2ef34417ec87814d22784f6a648457b41ee90e93e1",
        "walks.jsonl": "249d9f18e84f57f52d1ed9d4991d24e3c22164d980639f2338cc3899e5f3d5d1",
        "segments.csv": "df03a77865983bcf9742c9ae04783193c6d11c908ffe27b1a12da6f1c964a9f8",
        "report.json": "5aad90a683b52b88dabc0415cef0c0ce3489480f9f119b3cb2762e2847d5e654",
    },
    # The one valid segment overlaps the second resident's track and is
    # suppressed, so walks.jsonl is empty; the segments and the report
    # still pin both tracks.
    ("two_residents", 108, "home"): {
        "session.jsonl": "9e5152d818bc8308e5981c1d3b305aaa65ff7019cc96bcf71c32f7e8217f8950",
        "walks.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "segments.csv": "cc5f5e55d581e88bc81153ffb7dee8e20f1a16b667053df52666571787619718",
        "report.json": "e5ea84387b09cf2959558cae122e32b50340f0f1cd7aa2b317d46e490190a2d9",
    },
    ("home_with_pet", 107, "home"): {
        "session.jsonl": "fbfcc7a3f0a83f00fe8af97122561a1b2d4005bf2381750bb5136f9af2f3deda",
        "walks.jsonl": "f0e662b9979542d2b5cf514d6223556445facac99c275a92b1606b74a435072e",
        "segments.csv": "765dbe72949827287249f2aa6f1c975e7c410601017f53ab1db976101573ef86",
        "report.json": "a84cb2b199e8387dc9874f968396068335e9d64f91a2d166f5f39d2a70b042b8",
    },
}

# `home_radial` with every walker's points per scatterer group x10, as the
# benchmark's dense scenes are built: 150-250 points per occupied frame.
DENSE = ("home_radial", 104, 10)
GOLDEN_DENSE = {
    "session.jsonl": "308b3502b2c6de82b98f864da0819c7d04c4201a527c226057717ca8ebb4d766",
    "walks.jsonl": "19c6fe4553b004fb987e4230c5b6ac08fb5e100f4181c6af234f4b14d223c5ed",
    "segments.csv": "d340d3fc864efee15cf1767a6da3c49c50cbc89b1e1e7e50ec636398b6580f8a",
    "report.json": "32bb95cd538f7a951e24ff3a4012c3ac29b80bbcbbfe22be84e7db55c60d6fee",
}


def _process_digests(tmp_path, session_path, stem, mode, walklog=None):
    out = tmp_path / "out"
    args = ["process", "--input", str(session_path), "--mode", mode, "--out", str(out)]
    if walklog is not None:
        args += ["--walklog", str(walklog)]
    assert main(args) == 0
    files = {
        "session.jsonl": session_path,
        "walks.jsonl": out / stem / "walks.jsonl",
        "segments.csv": out / stem / "segments.csv",
        "report.json": out / "report.json",
    }
    return {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in files.items()}


@pytest.mark.parametrize("scenario,seed,mode", sorted(GOLDEN), ids=lambda v: str(v))
def test_golden_outputs(tmp_path, scenario, seed, mode):
    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", scenario, "--seed", str(seed),
                 "--out", str(sim)]) == 0
    stem = f"{scenario}-{seed}"
    walklog = sim / f"{stem}.walklog.json" if mode == "clinic" else None
    digests = _process_digests(tmp_path, sim / f"{stem}.session.jsonl", stem, mode, walklog)
    assert digests == GOLDEN[(scenario, seed, mode)]


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
    assert _process_digests(tmp_path, path, stem, "home") == GOLDEN_DENSE
