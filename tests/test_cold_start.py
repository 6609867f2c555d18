"""Cold-start guards: a run imports only the heavy modules it uses.

``scipy.signal`` alone takes longer to import than a whole small PEC
run, so the CLI, the layout readers and the non-PEC prep path must not
pull scipy in at all, and hybrid PEC must get by without
``scipy.signal``.  Each check runs in a fresh interpreter and reads
``sys.modules`` after the fact, so it measures what was loaded, not how
long it took.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.layout import generators
from repro.layout.gdsii import write_gdsii

SRC = Path(__file__).resolve().parents[1] / "src"

#: Runs ``repro.cli.main`` on argv (if any) after ``import repro.cli``,
#: then prints the loaded ``scipy``/``networkx`` module names as JSON.
_PROBE = """
import json, sys
import repro.cli
if sys.argv[1:]:
    code = repro.cli.main(sys.argv[1:])
    assert code == 0, code
print(json.dumps(sorted(
    name for name in sys.modules
    if name.split(".")[0] in ("scipy", "networkx")
)))
"""


def _loaded_after(*argv: str, cwd: Path = None) -> list:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def fzp_gds(tmp_path_factory):
    path = tmp_path_factory.mktemp("cold") / "fzp.gds"
    write_gdsii(generators.fresnel_zone_plate(), path)
    return path


def test_cli_import_loads_no_scipy_or_networkx():
    assert _loaded_after() == []


def test_plain_prep_loads_no_scipy(fzp_gds):
    argv = ["prep", str(fzp_gds), "--no-cache", "--workers", "1"]
    loaded = _loaded_after(*argv, "--machine", "raster", cwd=fzp_gds.parent)
    assert loaded == []


def test_hybrid_pec_prep_loads_no_scipy_signal(fzp_gds):
    argv = ["prep", str(fzp_gds), "--no-cache", "--workers", "1"]
    loaded = _loaded_after(*argv, "--pec", "--pec-matrix", "hybrid", cwd=fzp_gds.parent)
    assert "scipy.fft" in loaded  # the PEC path did run
    assert not [name for name in loaded if name.startswith("scipy.signal")]
