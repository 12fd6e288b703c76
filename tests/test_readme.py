"""The README's library sketch runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    section = README.read_text().split("\n## Library sketch\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md (Library sketch)", "exec"), namespace)
    depth, oracle = namespace["depth"], namespace["oracle"]
    assert depth.depth.shape == depth.valid.shape == oracle.valid.shape == (180, 320)
    assert depth.valid.any() and oracle.valid.any()
