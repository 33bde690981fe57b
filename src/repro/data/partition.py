"""Client data partitioning for federated simulation.

The paper partitions every dataset across K=10 devices with a Dirichlet
distribution over class proportions (alpha = 0.5 by default, varied in
Section IV-F). Lower alpha means more heterogeneous (non-iid) devices.

The simulation consumes a partition only as a plan:
:func:`plan_partition` computes the exact partition once as index
arrays (:class:`ListPartitionPlan`), :class:`VirtualShardPlan` derives
overlapping shards per ID without computing anything up front, and the
client directory (:mod:`repro.fl.fleet`) builds a client's shard from
``(plan, client_id)`` when it builds the client.

:func:`partition_dataset` is a convenience that builds every shard up
front as its own :class:`~repro.data.dataset.Dataset` from the same
plan. Tests use it as the reference the directory's shards must match.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .dataset import Dataset

__all__ = [
    "PartitionPlan",
    "ListPartitionPlan",
    "VirtualShardPlan",
    "dirichlet_partition",
    "iid_partition",
    "partition_dataset",
    "plan_partition",
]


def dirichlet_partition(
    labels: np.ndarray,
    num_clients: int,
    alpha: float,
    rng: np.random.Generator,
    min_samples: int = 2,
) -> list[np.ndarray]:
    """Partition sample indices with per-class Dirichlet proportions.

    Every sample is assigned to exactly one client. The partition is
    resampled until every client holds at least ``min_samples`` samples,
    matching the common implementation of [Luo et al., 2021] that the
    paper follows.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if min_samples < 1:
        raise ValueError(f"min_samples must be >= 1, got {min_samples}")
    if len(labels) < num_clients * min_samples:
        raise ValueError(
            f"{len(labels)} samples cannot give {num_clients} clients "
            f"at least {min_samples} each"
        )
    num_classes = int(labels.max()) + 1

    for _ in range(1000):
        client_indices: list[list[int]] = [[] for _ in range(num_clients)]
        for cls in range(num_classes):
            cls_indices = np.flatnonzero(labels == cls)
            rng.shuffle(cls_indices)
            proportions = rng.dirichlet(np.full(num_clients, alpha))
            counts = np.floor(proportions * len(cls_indices)).astype(int)
            # Distribute the rounding remainder to the largest shares.
            remainder = len(cls_indices) - counts.sum()
            if remainder > 0:
                order = np.argsort(-proportions)
                counts[order[:remainder]] += 1
            start = 0
            for client, count in enumerate(counts):
                client_indices[client].extend(
                    cls_indices[start : start + count]
                )
                start += count
        sizes = [len(indices) for indices in client_indices]
        if min(sizes) >= min_samples:
            return [
                np.sort(np.array(indices, dtype=np.int64))
                for indices in client_indices
            ]
    raise RuntimeError(
        "could not find a Dirichlet partition satisfying min_samples "
        f"(alpha={alpha}, clients={num_clients})"
    )


def iid_partition(
    num_samples: int, num_clients: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Uniformly random equal-size partition."""
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if num_samples < num_clients:
        raise ValueError(
            f"{num_samples} samples cannot cover {num_clients} clients"
        )
    permutation = rng.permutation(num_samples)
    return [
        np.sort(chunk) for chunk in np.array_split(permutation, num_clients)
    ]


# ----------------------------------------------------------------------
# Lazy partition plans
# ----------------------------------------------------------------------
class PartitionPlan(ABC):
    """A partition queried per client ID instead of materialized as a list.

    ``shard_indices(client_id)`` is deterministic: calling it twice for
    the same ID returns the same indices, so a virtual client can be
    dropped and rebuilt at any time.
    """

    @property
    @abstractmethod
    def num_clients(self) -> int:
        """Number of clients the plan covers."""

    @abstractmethod
    def shard_size(self, client_id: int) -> int:
        """Number of samples in one client's shard (no materialization)."""

    @abstractmethod
    def shard_indices(self, client_id: int) -> np.ndarray:
        """Sorted dataset indices of one client's shard."""

    def sizes(self) -> list[int]:
        """Per-client shard sizes, aligned with client IDs."""
        return [self.shard_size(i) for i in range(self.num_clients)]

    def _check_id(self, client_id: int) -> None:
        if not 0 <= client_id < self.num_clients:
            raise IndexError(
                f"client_id {client_id} out of range "
                f"[0, {self.num_clients})"
            )


class ListPartitionPlan(PartitionPlan):
    """A plan wrapping precomputed per-client index arrays.

    The plan of the exact (Dirichlet / iid) partitioners: the index
    arrays are O(total samples) of int64 — tiny next to the image data
    — and the shard ``Dataset`` copies are deferred until a client is
    materialized.
    """

    def __init__(self, parts: list[np.ndarray]) -> None:
        if not parts:
            raise ValueError("a partition plan needs at least one shard")
        self._parts = [np.asarray(p, dtype=np.int64) for p in parts]

    @property
    def num_clients(self) -> int:
        return len(self._parts)

    def shard_size(self, client_id: int) -> int:
        self._check_id(client_id)
        return int(self._parts[client_id].size)

    def shard_indices(self, client_id: int) -> np.ndarray:
        self._check_id(client_id)
        return self._parts[client_id]


class VirtualShardPlan(PartitionPlan):
    """Million-client overlapping shards derived per ID, O(1) storage.

    Models a huge cross-device population where each device holds a
    small local view of the data distribution: client ``k``'s shard is
    ``shard_size`` samples drawn without replacement from the dataset by
    an RNG seeded from ``(seed, k)`` alone. Shards of different clients
    overlap (the population is far larger than the dataset), every shard
    is recomputable from its ID, and nothing proportional to
    ``num_clients`` is ever stored.
    """

    _STREAM_SALT = 0x51A4D  # keeps shard draws off every other stream

    def __init__(
        self,
        num_samples: int,
        num_clients: int,
        shard_size: int,
        seed: int = 0,
    ) -> None:
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if not 1 <= shard_size <= num_samples:
            raise ValueError(
                f"shard_size must be in [1, {num_samples}], "
                f"got {shard_size}"
            )
        self._num_samples = num_samples
        self._num_clients = num_clients
        self._shard_size = shard_size
        self._seed = seed

    @property
    def num_clients(self) -> int:
        return self._num_clients

    def shard_size(self, client_id: int) -> int:
        self._check_id(client_id)
        return self._shard_size

    def shard_indices(self, client_id: int) -> np.ndarray:
        self._check_id(client_id)
        rng = np.random.default_rng(
            [self._seed, self._STREAM_SALT, client_id]
        )
        return np.sort(
            rng.choice(
                self._num_samples, size=self._shard_size, replace=False
            )
        ).astype(np.int64)


def plan_partition(
    dataset: Dataset,
    num_clients: int,
    alpha: float | None,
    rng: np.random.Generator,
    min_samples: int = 2,
) -> ListPartitionPlan:
    """Compute the exact partition as a lazy :class:`ListPartitionPlan`.

    ``alpha=None`` gives an iid partition; otherwise a Dirichlet
    partition with concentration ``alpha``. ``min_samples`` is the
    per-client floor the Dirichlet partition resamples to satisfy
    (ignored by the iid path, whose shards differ by at most one
    sample).
    """
    if alpha is None:
        parts = iid_partition(len(dataset), num_clients, rng)
    else:
        parts = dirichlet_partition(
            dataset.labels, num_clients, alpha, rng,
            min_samples=min_samples,
        )
    return ListPartitionPlan(parts)


def partition_dataset(
    dataset: Dataset,
    num_clients: int,
    alpha: float | None,
    rng: np.random.Generator,
    min_samples: int = 2,
) -> list[Dataset]:
    """Split a dataset into per-client shards, all built up front.

    The shards of :func:`plan_partition` with the same arguments; the
    two consume ``rng`` identically.
    """
    plan = plan_partition(
        dataset, num_clients, alpha, rng, min_samples=min_samples
    )
    return [
        dataset.subset(plan.shard_indices(i)) for i in range(num_clients)
    ]
