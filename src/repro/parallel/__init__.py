"""Domain-decomposition substrate (simulated MPI ranks) and the
task executor used by the precision-sweep engine (:func:`run_tasks`, on
the ``"serial"`` or ``"process"`` backend)."""
from .comm import REDUCTION_OPS, SimulatedComm
from .decomposition import BlockDistribution, morton_index
from .executor import TaskFault, TaskTimeoutError, run_tasks

__all__ = [
    "BlockDistribution",
    "morton_index",
    "SimulatedComm",
    "REDUCTION_OPS",
    "TaskFault",
    "TaskTimeoutError",
    "run_tasks",
]
