"""Process set-up shared by the entry points; import it before numpy.

Pins every BLAS/OpenMP pool to one thread (the variables are read when
numpy loads its BLAS, so this must run first) and puts the checkout's
``src`` on the import path. Outside a checkout of the program it exits
with status 2 before anything is measured.
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

if "numpy" in sys.modules:
    raise RuntimeError("perfbench.env must be imported before numpy")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))
