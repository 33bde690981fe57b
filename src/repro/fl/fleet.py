"""Client directory: a fleet addressed by ID, materialized on demand.

The simulation used to build every :class:`~repro.fl.client.Client` up
front — data shard, dev cache, RNG, device profile — so memory and
setup cost were O(total clients). A :class:`ClientDirectory` inverts
that: the fleet is a range of integer IDs, cohort sampling draws IDs,
and :meth:`ClientDirectory.materialize` builds the client for an ID
only when it is actually selected.

Two backends:

- :class:`MaterializedDirectory` wraps the eager client list and keeps
  the historical behavior (and the object identities the process-pool
  executor keys its worker caches on).
- :class:`VirtualClientDirectory` holds only the recipes — a
  :class:`~repro.data.partition.PartitionPlan` for shards and a
  :class:`~repro.fl.latency.FleetPlan` for device profiles — and builds
  clients deterministically from ``(plan, seed, client_id)``. Releasing
  a client saves its RNG state so a later re-materialization resumes
  the exact random stream, keeping virtual runs bitwise identical to
  materialized ones.

A round addresses its clients through a :class:`Cohort`: a sequence of
clients that materializes each one only when an executor reaches it.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Sequence

from ..data.dataset import Dataset
from ..data.partition import PartitionPlan
from .client import Client
from .latency import DeviceProfile, FleetPlan

__all__ = [
    "ClientDirectory",
    "Cohort",
    "MaterializedDirectory",
    "VirtualClientDirectory",
    "cohort_size",
]


def cohort_size(fraction: float, num_clients: int) -> int:
    """Deterministic cohort size: ``max(1, ceil(fraction * n))``.

    The previous ``int(round(fraction * n))`` rule used Python's
    round-half-to-even, so 2.5 expected participants became 2 while 3.5
    became 4. Every sampler (materialized and virtual) now shares this
    explicit ceiling rule.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    return max(1, math.ceil(fraction * num_clients))


class ClientDirectory(ABC):
    """The client population addressed by integer IDs ``0..n-1``."""

    @property
    @abstractmethod
    def num_clients(self) -> int:
        """Population size."""

    @abstractmethod
    def sample_count(self, client_id: int) -> int:
        """Local dataset size of one client, without materializing it."""

    @abstractmethod
    def device_profile(self, client_id: int) -> DeviceProfile:
        """Device profile of one client, without materializing it."""

    @abstractmethod
    def materialize(self, client_id: int) -> Client:
        """The live :class:`Client` for an ID, built on first use."""

    @abstractmethod
    def release(self, client_id: int) -> None:
        """Drop a client's live state (no-op for eager backends).

        Deterministic state (the RNG stream position) survives the
        release, so ``materialize`` after ``release`` resumes exactly
        where the client left off.
        """

    @abstractmethod
    def all_clients(self) -> list[Client]:
        """Every client, materialized. O(population) — compatibility
        surface for small fleets; huge virtual fleets must stay on the
        ID-based API."""

    def sample_counts(self) -> list[int]:
        """Per-client dataset sizes, aligned with client IDs."""
        return [
            self.sample_count(i) for i in range(self.num_clients)
        ]

    @abstractmethod
    def rng_snapshot(self) -> dict[int, dict]:
        """Every client RNG stream position that differs from a fresh
        build, keyed by client ID (checkpoint capture)."""

    @abstractmethod
    def restore_rng(self, states: dict[int, dict]) -> None:
        """Install a :meth:`rng_snapshot` (checkpoint resume).

        Clients absent from ``states`` keep their deterministic
        fresh-build stream, which is exactly what the snapshot means
        for clients that had never been touched when it was taken.
        """


class MaterializedDirectory(ClientDirectory):
    """The eager backend: wraps a prebuilt client list."""

    def __init__(self, clients: list[Client]) -> None:
        if not clients:
            raise ValueError("a directory needs at least one client")
        self._clients = clients

    @property
    def num_clients(self) -> int:
        return len(self._clients)

    def sample_count(self, client_id: int) -> int:
        return self._clients[client_id].num_samples

    def device_profile(self, client_id: int) -> DeviceProfile:
        return self._clients[client_id].device

    def materialize(self, client_id: int) -> Client:
        return self._clients[client_id]

    def release(self, client_id: int) -> None:
        # Eager clients are the authoritative state; never dropped.
        return None

    def all_clients(self) -> list[Client]:
        # The same list object every call; worker-pool executors ship
        # the directory itself and key their caches on its identity.
        return self._clients

    def rng_snapshot(self) -> dict[int, dict]:
        return {
            client.client_id: client.rng.bit_generator.state
            for client in self._clients
        }

    def restore_rng(self, states: dict[int, dict]) -> None:
        for client in self._clients:
            saved = states.get(client.client_id)
            if saved is not None:
                client.rng.bit_generator.state = saved


class VirtualClientDirectory(ClientDirectory):
    """The lazy backend: clients are recipes until selected."""

    def __init__(
        self,
        train_data: Dataset,
        partition: PartitionPlan,
        fleet: FleetPlan,
        dev_fraction: float = 0.1,
        seed: int = 0,
    ) -> None:
        if fleet.num_devices != partition.num_clients:
            raise ValueError(
                f"partition covers {partition.num_clients} clients but "
                f"fleet covers {fleet.num_devices} devices"
            )
        self._train_data = train_data
        self._partition = partition
        self._fleet = fleet
        self._dev_fraction = dev_fraction
        self._seed = seed
        self._live: dict[int, Client] = {}
        # RNG stream positions of released clients, so re-materialized
        # clients draw the same batch orders a permanently-live client
        # would have.
        self._rng_states: dict[int, dict] = {}

    @property
    def num_clients(self) -> int:
        return self._partition.num_clients

    def sample_count(self, client_id: int) -> int:
        return self._partition.shard_size(client_id)

    def device_profile(self, client_id: int) -> DeviceProfile:
        return self._fleet.profile(client_id)

    @property
    def live_count(self) -> int:
        """How many clients are currently materialized."""
        return len(self._live)

    def sample_counts(self) -> list[int]:
        return self._partition.sizes()

    def materialize(self, client_id: int) -> Client:
        client = self._live.get(client_id)
        if client is not None:
            return client
        client = Client(
            client_id=client_id,
            train_data=self._train_data.subset(
                self._partition.shard_indices(client_id)
            ),
            dev_fraction=self._dev_fraction,
            seed=self._seed,
            device=self._fleet.profile(client_id),
        )
        # Construction replayed the client's deterministic prefix (the
        # dev-set draw); if the client lived before, fast-forward its
        # RNG to where the last release left it.
        saved = self._rng_states.get(client_id)
        if saved is not None:
            client.rng.bit_generator.state = saved
        self._live[client_id] = client
        return client

    def release(self, client_id: int) -> None:
        client = self._live.pop(client_id, None)
        if client is not None:
            self._rng_states[client_id] = (
                client.rng.bit_generator.state
            )

    def all_clients(self) -> list[Client]:
        return [self.materialize(i) for i in range(self.num_clients)]

    def rng_snapshot(self) -> dict[int, dict]:
        # Released positions plus live clients; IDs never materialized
        # need no entry — a fresh build derives their stream from the
        # seed, bit-identically.
        snapshot = dict(self._rng_states)
        for client_id, client in self._live.items():
            snapshot[client_id] = client.rng.bit_generator.state
        return snapshot

    def restore_rng(self, states: dict[int, dict]) -> None:
        self._rng_states.update(states)
        for client_id, client in self._live.items():
            saved = states.get(client_id)
            if saved is not None:
                client.rng.bit_generator.state = saved

    def __getstate__(self) -> dict:
        # Worker processes receive the *recipe*, never live clients:
        # materialized Client objects hold dataset views and are exactly
        # what lazy materialization exists to avoid shipping. Folding
        # the live RNG positions into the released-state map makes the
        # pickled twin behave as if every client had been released, so
        # a worker-side materialize() resumes the same streams.
        state = self.__dict__.copy()
        rng_states = dict(self._rng_states)
        for client_id, client in self._live.items():
            rng_states[client_id] = client.rng.bit_generator.state
        state["_rng_states"] = rng_states
        state["_live"] = {}
        return state


class Cohort(Sequence):
    """One round's clients: IDs, materialized on access.

    Executors index or iterate it like a list of
    :class:`~repro.fl.client.Client`; each access goes through the
    directory, so a virtual fleet builds a client only when an executor
    reaches it, and the round can release it right after its upload.
    The first access to each client records its RNG position in
    ``round_rng`` — the round boundary a failed round rewinds to.
    """

    def __init__(
        self, directory: ClientDirectory, client_ids: list[int]
    ) -> None:
        self.directory = directory
        self.ids = list(client_ids)
        self.round_rng: dict[int, dict] = {}

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index: int) -> Client:
        client_id = self.ids[index]
        client = self.directory.materialize(client_id)
        if client_id not in self.round_rng:
            self.round_rng[client_id] = client.rng.bit_generator.state
        return client
