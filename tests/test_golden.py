"""Golden outputs: sha256 of the result bundle for fixed seeded presets.

Criterion 11 shows that reruns agree with each other; these hashes show
that a refactor left the bytes of the outputs unchanged. A change that
alters outputs on purpose updates the hashes and says why in CHANGES.md.
"""

import hashlib

import pytest

from gaitpipe.cli import main

GOLDEN = {
    ("clinic_control", 7, "clinic"): {
        "walks.jsonl": "249d9f18e84f57f52d1ed9d4991d24e3c22164d980639f2338cc3899e5f3d5d1",
        "segments.csv": "df03a77865983bcf9742c9ae04783193c6d11c908ffe27b1a12da6f1c964a9f8",
        "report.json": "15c96611e016502277063897cf4cc6e6a6d52faa2f2edba1992d96755e6c024f",
    },
    # The one valid segment overlaps the second resident's track and is
    # suppressed, so walks.jsonl is empty; the segments and the report
    # still pin both tracks.
    ("two_residents", 108, "home"): {
        "walks.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "segments.csv": "cc5f5e55d581e88bc81153ffb7dee8e20f1a16b667053df52666571787619718",
        "report.json": "ffda7ff24a590a038887e40b489ac47ca91ca05ae2207cd897e728469b4f20da",
    },
    ("home_with_pet", 107, "home"): {
        "walks.jsonl": "f0e662b9979542d2b5cf514d6223556445facac99c275a92b1606b74a435072e",
        "segments.csv": "765dbe72949827287249f2aa6f1c975e7c410601017f53ab1db976101573ef86",
        "report.json": "74b74f148f23ed5e2e3f7a741e625d3989de2b2eaf4f50956e967992f5c8663a",
    },
}


@pytest.mark.parametrize("scenario,seed,mode", sorted(GOLDEN), ids=lambda v: str(v))
def test_golden_outputs(tmp_path, scenario, seed, mode):
    sim, out = tmp_path / "sim", tmp_path / "out"
    assert main(["simulate", "--scenario", scenario, "--seed", str(seed),
                 "--out", str(sim)]) == 0
    stem = f"{scenario}-{seed}"
    args = ["process", "--input", str(sim / f"{stem}.session.jsonl"),
            "--mode", mode, "--out", str(out)]
    if mode == "clinic":
        args += ["--walklog", str(sim / f"{stem}.walklog.json")]
    assert main(args) == 0
    files = {
        "walks.jsonl": out / stem / "walks.jsonl",
        "segments.csv": out / stem / "segments.csv",
        "report.json": out / "report.json",
    }
    digests = {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in files.items()}
    assert digests == GOLDEN[(scenario, seed, mode)]
