"""ZeRO-3 model-state sharding and size accounting.

The checkpoint that GEMINI replicates is the *model states*: fp32 master
parameters plus Adam momentum and variance, i.e. **12 bytes per parameter**.
This reproduces the paper's own numbers exactly:

- GPT2-100B over 128 GPUs -> 9.4 GB per GPU (Section 5.2),
- MT-NLG 530B at 20 Gbps -> ~42 minutes (Section 2.2).

Under ZeRO-3 every GPU owns ``1/world_size`` of every tensor, so a
machine's checkpoint shard is ``total / num_machines``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.training.models import ModelConfig

#: fp32 master params (4) + Adam momentum (4) + Adam variance (4).
CHECKPOINT_BYTES_PER_PARAM = 12.0
#: fp16 working copy used by compute/communication.
FP16_BYTES_PER_PARAM = 2.0
#: fp16 params + fp16 grads + fp32 master + Adam m + v, resident in GPU mem.
TRAINING_STATE_BYTES_PER_PARAM = 16.0


@dataclass(frozen=True)
class ShardingSpec:
    """How a model's states are spread over the cluster (ZeRO stage 3).

    Attributes
    ----------
    model:
        Model configuration.
    num_machines:
        Cluster size N.
    gpus_per_machine:
        GPUs per machine (8 for all Table 1 SKUs).
    """

    model: ModelConfig
    num_machines: int
    gpus_per_machine: int = 8

    def __post_init__(self):
        if self.num_machines < 1:
            raise ValueError(f"num_machines must be >= 1, got {self.num_machines}")
        if self.gpus_per_machine < 1:
            raise ValueError(f"gpus_per_machine must be >= 1, got {self.gpus_per_machine}")

    @property
    def world_size(self) -> int:
        return self.num_machines * self.gpus_per_machine

    # -- checkpoint (model states) sizes -------------------------------------

    # Both sizes are computed once per spec (it is frozen): a fleet build
    # reads them for every machine it provisions.

    @cached_property
    def checkpoint_bytes_total(self) -> float:
        """Full model-state checkpoint size across the job."""
        return self.model.total_parameters() * CHECKPOINT_BYTES_PER_PARAM

    @cached_property
    def checkpoint_bytes_per_machine(self) -> float:
        """One machine's checkpoint shard (what GEMINI replicates)."""
        return self.checkpoint_bytes_total / self.num_machines

    @property
    def checkpoint_bytes_per_gpu(self) -> float:
        """One GPU's checkpoint shard (9.4 GB for GPT2-100B over 128 GPUs)."""
        return self.checkpoint_bytes_total / self.world_size

    # -- resident training state -----------------------------------------------

    @property
    def training_state_bytes_per_gpu(self) -> float:
        """Params+grads+optimizer resident per GPU during training."""
        return (
            self.model.total_parameters()
            * TRAINING_STATE_BYTES_PER_PARAM
            / self.world_size
        )

    # -- training communication volumes ------------------------------------------

    def collective_inter_node_bytes(self, tensor_bytes: float) -> float:
        """Inter-node NIC bytes per machine for one ring collective.

        A ring allgather/reduce-scatter of a tensor of ``tensor_bytes``
        moves ``(N-1)/N * tensor_bytes`` across each participant's NIC;
        intra-machine hops ride NVSwitch and are not modelled.
        """
        n = self.num_machines
        if n == 1:
            return 0.0
        return tensor_bytes * (n - 1) / n

    @property
    def comm_volume_per_machine_per_iteration(self) -> float:
        """Total training NIC bytes per machine per iteration under ZeRO-3.

        Three full-model fp16 collectives per iteration: parameter
        allgather in forward, parameter allgather in backward
        (re-gathered after recomputation), and gradient reduce-scatter.
        """
        full_fp16 = self.model.total_parameters() * FP16_BYTES_PER_PARAM
        return 3 * self.collective_inter_node_bytes(full_fp16)

    def __repr__(self) -> str:
        return (
            f"<ShardingSpec {self.model.name} x{self.num_machines} machines "
            f"({self.world_size} GPUs)>"
        )
