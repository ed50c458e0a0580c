"""repro — Python reproduction of RAPTOR (SC'25).

RAPTOR: Practical Numerical Profiling of Scientific Applications.

The package is organised as:

* :mod:`repro.core`      — the profiling tool itself (formats, quantisation,
  op-mode / mem-mode runtimes, instrumentation, selective policies).
* :mod:`repro.kernels`   — the kernel-plane layer: instrumented vs fused
  binary64 fast execution of the solvers' numerics contexts.
* :mod:`repro.codesign`  — the hardware co-design model of Section 7.2.
* :mod:`repro.amr`       — block-structured AMR substrate (Flash-X analogue).
* :mod:`repro.hydro`     — compressible hydrodynamics solver (Spark analogue).
* :mod:`repro.eos`, :mod:`repro.burn` — stellar EOS and burning (Cellular).
* :mod:`repro.incomp`    — incompressible multiphase solver (Bubble).
* :mod:`repro.workloads` — the four evaluation workloads.
* :mod:`repro.io`        — checkpoints and the sfocu comparison utility.
* :mod:`repro.parallel`  — the task executor of the sweep engine.

Subpackages other than :mod:`repro.core` are imported lazily by user code
(``import repro.workloads`` etc.); only the core is imported eagerly here so
that ``import repro`` stays lightweight.  SciPy is imported only by the
bubble's pressure-Poisson solve, on its first call, so importing the sweep
engine (:mod:`repro.experiments`, :mod:`repro.workloads`) loads none of it.
"""
from . import core

__version__ = "1.0.0"

__all__ = ["core", "__version__"]
