"""The paper's distributed low-memory tree routing (Section 3 + Appendix A,
Theorem 2; system S6 of DESIGN.md)."""

from .localcomm import local_flood, report_to_parents
from .pointer_jumping import PointerJumpResult, pointer_jump, required_iterations
from .sampling import (
    TreePartition,
    default_sampling_probability,
    partition_tree,
)
from .scheme import DistributedTreeBuild, build_distributed_tree_scheme
from .stage0_partition import PartitionInfo, run_stage0
from .stage1_sizes import SizeInfo, run_stage1
from .stage2_light import LightInfo, run_stage2
from .stage3_dfs import DfsInfo, run_stage3

__all__ = [
    "DfsInfo",
    "DistributedTreeBuild",
    "LightInfo",
    "PartitionInfo",
    "PointerJumpResult",
    "SizeInfo",
    "TreePartition",
    "build_distributed_tree_scheme",
    "default_sampling_probability",
    "local_flood",
    "partition_tree",
    "pointer_jump",
    "report_to_parents",
    "required_iterations",
    "run_stage0",
    "run_stage1",
    "run_stage2",
    "run_stage3",
]
