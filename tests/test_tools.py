"""The scripts under tools/ run as fresh processes and reproduce the files
bundled with the repository."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUNDLED = ("alarm.net", "fivehub.net", "insurance.net", "win95pts.net")


def test_make_networks_rewrites_the_bundled_networks(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "make_networks.py"),
                           "--out-dir", str(tmp_path)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          encoding="utf-8", timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert sorted(p.name for p in tmp_path.iterdir()) == list(BUNDLED)
    for name in BUNDLED:
        assert (tmp_path / name).read_bytes() == (ROOT / "networks" / name).read_bytes(), name
