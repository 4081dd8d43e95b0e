"""``import repro`` stays lean: no scipy module is loaded at import time.

scipy is only needed by optional helpers (seismogram filters, envelope
misfits, the smoothed-step time function), which import it lazily.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_import_loads_no_scipy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, repro; "
        "print(','.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout.strip()
    assert out == "", f"import repro loaded scipy modules: {out}"
