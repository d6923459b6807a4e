"""The demo scripts print exactly what they printed when their output was
pinned: any change to a demo's stdout must update its hash here."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_SHA256 = {
    "01_geometric_division.py":
        "8f5f23b27b3086b774451caa1d99de4a9a7ee64790f8ceba2da9d8c40de2e7cb",
    "02_membership_and_congruence.py":
        "ab206457f862fb7005a57f30f9a2229d4cac9292e75d45f58af49d466601a668",
    "03_standard_basis_probes.py":
        "6e341dd7f96b1635367f66a0fbdec87bd4e55bb18c333fa51bfd9982ea0bd37c",
    "04_finite_systems.py":
        "2f56088e6247e95a76c21e061192472e28876bb0e8dbbc93a1b7acdafa5b0b11",
    "05_precision_tracking.py":
        "d05d55b041e3976f4b803f5c71996307bd4e26e7018925c63de492c953c2e085",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_output_is_byte_identical(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                         capture_output=True, check=True, timeout=120).stdout
    assert hashlib.sha256(out).hexdigest() == DEMO_SHA256[name]
