"""Client directory: a fleet addressed by ID, materialized on demand.

The fleet is a range of integer IDs: cohort sampling draws IDs, and a
round's timing reads each ID's shard size and device profile without
building anything. A :class:`ClientDirectory` holds only the recipes —
a :class:`~repro.data.partition.PartitionPlan` for shards and a
:class:`~repro.fl.latency.FleetPlan` for device profiles — and
:meth:`ClientDirectory.materialize` builds the
:class:`~repro.fl.client.Client` for an ID deterministically from
``(plan, seed, client_id)``.

The client backend (``FLConfig.client_backend``) chooses only
retention. ``"materialized"`` builds every client with the directory
and keeps them all; ``"virtual"`` builds a client when it is selected
and drops it on :meth:`ClientDirectory.release`. Releasing a client
saves its RNG state so a later re-materialization resumes the exact
random stream, which keeps the two backends bitwise identical. Worker
executors receive the directory pickled as its recipe.

A round addresses its clients through a :class:`Cohort`: a sequence of
clients that materializes each one only when an executor reaches it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from ..data.dataset import Dataset
from ..data.partition import PartitionPlan
from .client import Client
from .latency import DeviceProfile, FleetPlan

__all__ = [
    "ClientDirectory",
    "Cohort",
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


class ClientDirectory:
    """The client population addressed by integer IDs ``0..n-1``.

    Holds the recipe — the training set, a partition plan, a fleet plan,
    the dev fraction and the seed — and builds the client for an ID on
    :meth:`materialize`. ``retain=True`` builds every client up front
    and keeps each one for the directory's lifetime (the
    ``"materialized"`` client backend); otherwise a client lives from
    :meth:`materialize` to :meth:`release` (``"virtual"``). Either way a
    client's RNG stream is a pure function of its history, so both
    retention choices run the same bytes.
    """

    def __init__(
        self,
        train_data: Dataset,
        partition: PartitionPlan,
        fleet: FleetPlan,
        dev_fraction: float = 0.1,
        seed: int = 0,
        retain: bool = False,
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
        self._retain = retain
        self._live: dict[int, Client] = {}
        # RNG stream positions of released clients, so re-materialized
        # clients draw the same batch orders a permanently-live client
        # would have.
        self._rng_states: dict[int, dict] = {}
        if retain:
            for client_id in range(self.num_clients):
                self.materialize(client_id)

    @property
    def num_clients(self) -> int:
        """Population size."""
        return self._partition.num_clients

    def sample_count(self, client_id: int) -> int:
        """Local dataset size of one client, without materializing it."""
        return self._partition.shard_size(client_id)

    def device_profile(self, client_id: int) -> DeviceProfile:
        """Device profile of one client, without materializing it."""
        return self._fleet.profile(client_id)

    @property
    def live_count(self) -> int:
        """How many clients are currently materialized."""
        return len(self._live)

    def sample_counts(self) -> list[int]:
        """Per-client dataset sizes, aligned with client IDs."""
        return self._partition.sizes()

    def materialize(self, client_id: int) -> Client:
        """The live :class:`Client` for an ID, built on first use."""
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
        """Drop a client's live state (kept when the directory retains).

        Deterministic state (the RNG stream position) survives the
        release, so ``materialize`` after ``release`` resumes exactly
        where the client left off.
        """
        if self._retain:
            return
        client = self._live.pop(client_id, None)
        if client is not None:
            self._rng_states[client_id] = (
                client.rng.bit_generator.state
            )

    def all_clients(self) -> list[Client]:
        """Every client, materialized. O(population) — compatibility
        surface for small fleets; huge virtual fleets must stay on the
        ID-based API."""
        return [self.materialize(i) for i in range(self.num_clients)]

    def rng_snapshot(self) -> dict[int, dict]:
        """Every client RNG stream position that differs from a fresh
        build, keyed by client ID (checkpoint capture)."""
        # Released positions plus live clients; IDs never materialized
        # need no entry — a fresh build derives their stream from the
        # seed, bit-identically.
        snapshot = dict(self._rng_states)
        for client_id, client in self._live.items():
            snapshot[client_id] = client.rng.bit_generator.state
        return snapshot

    def restore_rng(self, states: dict[int, dict]) -> None:
        """Install a :meth:`rng_snapshot` (checkpoint resume).

        Clients absent from ``states`` keep their deterministic
        fresh-build stream, which is exactly what the snapshot means
        for clients that had never been touched when it was taken.
        """
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
        state["_rng_states"] = self.rng_snapshot()
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
