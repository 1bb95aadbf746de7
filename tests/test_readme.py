from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    # "Library use" and the data-model example run as written, so a stale
    # name in either fails here.
    blocks = README.read_text(encoding="utf-8").split("```python\n")[1:]
    assert len(blocks) >= 2
    for k, block in enumerate(blocks):
        exec(compile(block.split("```", 1)[0], f"README.md python block {k}", "exec"), {})
