"""The task executor of the precision-sweep engine: :func:`run_tasks`
runs one function over a list of tasks on the ``"serial"`` or
``"process"`` backend, with per-task timeouts, retries and fault
collection."""
from .executor import TaskFault, TaskTimeoutError, run_tasks

__all__ = [
    "TaskFault",
    "TaskTimeoutError",
    "run_tasks",
]
