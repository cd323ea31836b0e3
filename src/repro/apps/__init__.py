"""The evaluation workloads (paper Table 1) plus extras.

* :mod:`repro.apps.fft3d` -- NAS-FT-style distributed 3D FFT (barriers)
* :mod:`repro.apps.mg` -- multigrid Poisson solver (barriers)
* :mod:`repro.apps.shallow` -- NCAR shallow-water kernel (barriers)
* :mod:`repro.apps.water` -- SPLASH-style molecular dynamics (locks+barriers)
* :mod:`repro.apps.sor` -- red-black SOR (extra workload, not in the paper)

All applications execute real numerical kernels over the DSM and verify
their final shared state against sequential references.
"""

from .base import (
    APP_REGISTRY,
    DsmApplication,
    block_rows,
    gather_global,
    make_app,
    owner_homes,
    register_app,
)
from .fft3d import Fft3dApp
from .mg import MgApp
from .shallow import ShallowApp
from .water import WaterApp
from .sor import SorApp

#: The four applications of the paper's evaluation, in Table 1 order.
PAPER_APPS = ("fft3d", "mg", "shallow", "water")

__all__ = [
    "APP_REGISTRY",
    "PAPER_APPS",
    "DsmApplication",
    "block_rows",
    "owner_homes",
    "gather_global",
    "make_app",
    "register_app",
    "Fft3dApp",
    "MgApp",
    "ShallowApp",
    "WaterApp",
    "SorApp",
]
