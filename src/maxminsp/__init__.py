"""Max-min margin structured prediction: tasks, saddle oracle, trainer."""

from .tasks import (
    ChainTask,
    InvalidLabelError,
    LayoutError,
    MulticlassTask,
    OrdinalTask,
    RankingTask,
    SimplexTask,
    Task,
    make_task,
)

__version__ = "0.1.0"

__all__ = [
    "Task",
    "SimplexTask",
    "MulticlassTask",
    "OrdinalTask",
    "ChainTask",
    "RankingTask",
    "make_task",
    "InvalidLabelError",
    "LayoutError",
    "__version__",
]
