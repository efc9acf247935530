"""The README's library sketch (its first python block) runs on the current names."""

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_library_sketch_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sketch = re.search(r"^```python\n(.*?)^```$", readme, re.S | re.M).group(1)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", sketch],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
