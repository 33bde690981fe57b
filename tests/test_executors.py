"""Tests for the pluggable client-execution backends."""

import numpy as np
import pytest

from repro.experiments import run_experiment
from repro.fl import (
    ClientExecutor,
    FLConfig,
    ProcessPoolClientExecutor,
    SerialExecutor,
    available_executors,
    build_executor,
    register_executor,
)
from repro.fl.executor import _EXECUTORS


def _result_record(result):
    """Everything RunResult captures, in comparable plain-data form."""
    return {
        "rounds": [vars(r) for r in result.rounds],
        "summary": result.to_dict(),
    }


class TestExecutorRegistry:
    def test_builtins_available(self):
        assert "serial" in available_executors()
        assert "process" in available_executors()

    def test_build_by_name(self):
        assert isinstance(build_executor("serial"), SerialExecutor)
        executor = build_executor("process", max_workers=2)
        assert isinstance(executor, ProcessPoolClientExecutor)
        executor.close()

    def test_unknown_executor_raises(self):
        with pytest.raises(KeyError):
            build_executor("quantum")

    def test_flconfig_validates_executor_name(self):
        with pytest.raises(ValueError):
            FLConfig(executor="quantum")
        with pytest.raises(ValueError):
            FLConfig(executor_workers=0)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_executor("serial", SerialExecutor)

    def test_custom_backend_registration(self):
        class _Probe(SerialExecutor):
            name = "probe"

        try:
            register_executor("probe", _Probe)
            assert "probe" in available_executors()
            assert isinstance(build_executor("probe"), _Probe)
            assert FLConfig(executor="probe").executor == "probe"
        finally:
            _EXECUTORS.pop("probe", None)


class TestSerialVsParallel:
    def test_identical_run_results_on_fixed_seed(self):
        serial = run_experiment(
            "fedtiny", "resnet18", "cifar10", 0.1,
            scale="tiny", pool_size=2, seed=0, rounds=2,
        )
        parallel = run_experiment(
            "fedtiny", "resnet18", "cifar10", 0.1,
            scale="tiny", pool_size=2, seed=0, rounds=2,
            executor="process",
        )
        a, b = _result_record(serial), _result_record(parallel)
        assert a["summary"] == b["summary"]
        for ra, rb in zip(a["rounds"], b["rounds"]):
            assert ra == rb

    def test_identical_async_rounds(self):
        # Async rounds fold process uploads packed until the policy adds
        # its stale buffer, then decode them; the serial backend folds
        # dense views throughout. Every round must commit the same.
        kwargs = dict(
            scale="tiny", seed=0, rounds=3, round_policy="async",
            fleet="heterogeneous:8",
        )
        serial = run_experiment(
            "fedavg", "resnet18", "cifar10", 1.0, **kwargs
        )
        parallel = run_experiment(
            "fedavg", "resnet18", "cifar10", 1.0, executor="process",
            **kwargs,
        )
        assert _result_record(serial) == _result_record(parallel)

    def test_process_backend_restores_client_rng(self):
        # The parallel backend trains pickled client copies; the
        # original clients' RNG streams must still advance exactly as
        # under serial execution, otherwise round 2+ batches diverge
        # (covered end-to-end above; this checks the mechanism).
        from repro.experiments import make_context, get_scale

        ctx, _ = make_context(
            "resnet18", "cifar10", get_scale("tiny"), seed=0,
            executor="process",
        )
        before = [c.rng.bit_generator.state for c in ctx.clients]
        try:
            ctx.run_fedavg_round()
        finally:
            ctx.close()
        after = [c.rng.bit_generator.state for c in ctx.clients]
        assert before != after

    def test_executor_close_is_idempotent(self):
        executor = ProcessPoolClientExecutor(max_workers=1)
        executor.close()
        executor.close()


class TestExecutorContract:
    def test_abstract_base_requires_run_clients(self):
        with pytest.raises(TypeError):
            ClientExecutor()


def _state_bits(model):
    from repro.fl.state import get_state

    return {
        k: v.copy().view(np.uint32) for k, v in get_state(model).items()
    }


class TestSerialSnapshotRestore:
    """The flat-snapshot download must be bit-identical to reinstall."""

    def _ctx(self):
        from repro.experiments import make_context, get_scale

        ctx, _ = make_context(
            "resnet18", "cifar10", get_scale("tiny"), seed=0
        )
        return ctx

    def test_restore_matches_load_into_model(self):
        ctx = self._ctx()
        ctx.server.broadcast()
        reference = _state_bits(ctx.model)
        # Scribble over the model the way a client's local SGD would.
        for _, param in ctx.model.named_parameters():
            param.data = param.data + 0.25
        ctx.server.restore_broadcast()
        fast = _state_bits(ctx.model)
        ctx.server.load_into_model()
        canonical = _state_bits(ctx.model)
        for name in reference:
            assert (fast[name] == canonical[name]).all(), name
            assert (fast[name] == reference[name]).all(), name
        ctx.close()

    def test_restore_without_broadcast_falls_back(self):
        ctx = self._ctx()
        ctx.server.restore_broadcast()  # no prior broadcast: full install
        canonical = _state_bits(ctx.server.load_into_model())
        fast = _state_bits(ctx.model)
        for name in canonical:
            assert (fast[name] == canonical[name]).all(), name
        ctx.close()

    def test_commit_invalidates_snapshot(self):
        from repro.fl.state import get_state

        ctx = self._ctx()
        ctx.server.broadcast()
        new_state = {
            k: v + 1.0 for k, v in get_state(ctx.model).items()
        }
        ctx.server.commit_state(new_state)
        ctx.server.restore_broadcast()  # must re-capture, not reuse
        state = get_state(ctx.model)
        for name, value in ctx.server.state.items():
            np.testing.assert_array_equal(state[name], value, err_msg=name)
        ctx.close()


class TestWorkersSurviveMaskChanges:
    """Persistent shm workers must track FedTiny-style mask updates."""

    def test_mask_epoch_installs_new_masks_in_workers(self):
        from repro.experiments import make_context, get_scale
        from repro.sparse.mask import MaskSet

        ctx, _ = make_context(
            "resnet18", "cifar10", get_scale("tiny"), seed=0,
            executor="process",
        )
        try:
            ctx.run_fedavg_round()
            epoch_before = ctx.server.mask_epoch
            # Prune half of every prunable tensor mid-run, as FedTiny's
            # mask adjustment would between rounds.
            rng = np.random.default_rng(3)
            masks = {}
            for name, param in ctx.model.named_parameters():
                if param.prunable:
                    mask = rng.random(param.shape) < 0.5
                    mask.reshape(-1)[0] = True
                    masks[name] = mask
            ctx.install_masks(MaskSet(masks))
            assert ctx.server.mask_epoch == epoch_before + 1
            states = ctx.run_fedavg_round()
            # Workers trained under the new masks: every upload honors
            # them (pruned positions exactly zero).
            for state in states:
                for name, mask in masks.items():
                    np.testing.assert_array_equal(
                        state[name][~mask], 0.0, err_msg=name
                    )
        finally:
            ctx.close()

    def test_serial_process_parity_across_mask_change(self):
        # End-to-end fedtiny parity (pruning rounds change masks every
        # round) is covered by TestSerialVsParallel; this pins the
        # executor-level contract with an explicit mid-run mask swap.
        from repro.experiments import make_context, get_scale
        from repro.sparse.mask import MaskSet

        records = {}
        for executor in ("serial", "process"):
            ctx, _ = make_context(
                "resnet18", "cifar10", get_scale("tiny"), seed=0,
                executor=executor,
            )
            try:
                ctx.run_fedavg_round()
                rng = np.random.default_rng(7)
                masks = {}
                for name, param in ctx.model.named_parameters():
                    if param.prunable:
                        mask = rng.random(param.shape) < 0.3
                        mask.reshape(-1)[0] = True
                        masks[name] = mask
                ctx.install_masks(MaskSet(masks))
                ctx.run_fedavg_round()
                records[executor] = {
                    k: v.copy() for k, v in ctx.server.state.items()
                }
            finally:
                ctx.close()
        for name in records["serial"]:
            assert np.array_equal(
                records["serial"][name], records["process"][name]
            ), name


class TestWorkerRoundBodyInProcess:
    """Drive the one worker body in-process.

    Both worker backends run ``_WorkerRuntime`` in worker processes,
    which coverage cannot see; calling it here exercises the exact code
    paths (arena attach or frame install, mask deserialization, binding
    restore, packed upload, selection pass) and checks them against the
    serial reference.
    """

    @pytest.fixture
    def ctx(self):
        from repro.experiments import make_context, get_scale

        ctx, _ = make_context(
            "resnet18", "cifar10", get_scale("tiny"), seed=0
        )
        yield ctx
        ctx.close()

    @staticmethod
    def _serial_reference(ctx):
        """Client 0's round-start RNG state and its serial training."""
        from repro.fl import executor as ex

        client = ctx.clients[0]
        rng_state = client.rng.bit_generator.state
        ctx.server.load_into_model()
        reference = client.train(ctx.model, **ex._train_kwargs(ctx))
        # Back to the broadcast, as a worker round leaves the master.
        ctx.server.load_into_model()
        return rng_state, reference

    @staticmethod
    def _arena_upload(ctx, rng_state, monkeypatch):
        """Client 0's upload through the pool's arena path, twice."""
        import pickle

        from repro.fl import executor as ex

        monkeypatch.setattr(ex, "_RUNTIME", None)
        pool_exec = ex.ProcessPoolClientExecutor(max_workers=1)
        try:
            # The worker's runtime, as the pool initializer builds it.
            ex._init_worker(
                pickle.dumps(ctx.directory), pickle.dumps(ctx.model)
            )
            epoch = ctx.server.mask_epoch
            round_tag = pool_exec._publish(
                ctx.model, ctx.server.masks, epoch
            )
            args = (
                pool_exec._arena_name, round_tag, epoch, 0, rng_state,
                ex._train_kwargs(ctx),
            )
            first = ex._train_client_shm(*args)
            # Same round again: the installed broadcast is reused and
            # gives the identical upload.
            again = ex._train_client_shm(*args)
            assert bytes(again[0]) == bytes(first[0])
            return first
        finally:
            ex._RUNTIME.close()
            pool_exec.close()

    @staticmethod
    def _assert_matches(upload, reference):
        from repro.fl.payload import PackedPayload, unpack_state

        wire, num_samples, num_iterations, mean_loss, _ = upload
        state = unpack_state(PackedPayload.from_bytes(wire))
        assert num_samples == reference.num_samples
        assert num_iterations == reference.num_iterations
        assert mean_loss == reference.mean_loss
        for name, value in reference.state.items():
            assert np.array_equal(state[name], value), name

    def test_worker_body_matches_serial_training(self, ctx, monkeypatch):
        rng_state, reference = self._serial_reference(ctx)
        upload = self._arena_upload(ctx, rng_state, monkeypatch)
        self._assert_matches(upload, reference)

    def test_network_worker_body_matches_arena_and_serial(
        self, ctx, monkeypatch
    ):
        import pickle

        from repro.fl import executor as ex
        from repro.fl.executor import SelectionPass, SerialExecutor

        rng_state, reference = self._serial_reference(ctx)
        arena_upload = self._arena_upload(ctx, rng_state, monkeypatch)
        # What one BROADCAST frame carries: round tag, mask epoch, masks
        # blob, and the payload's wire bytes.
        packer = ex._BroadcastPacker()
        epoch = ctx.server.mask_epoch
        masks_blob, payload = packer.publish(
            ctx.model, ctx.server.masks, epoch
        )
        runtime = ex._WorkerRuntime(
            pickle.dumps(ctx.directory), pickle.dumps(ctx.model)
        )
        try:
            runtime.install(1, epoch, masks_blob, bytes(payload.to_wire()))
            upload = runtime.train(0, rng_state, ex._train_kwargs(ctx))
            assert bytes(upload[0]) == bytes(arena_upload[0])
            assert upload[1:] == arena_upload[1:]
            self._assert_matches(upload, reference)

            # A selection pass on a candidate broadcast equals the
            # in-process reference sweep.
            clients = ctx.clients[:3]
            token = ("selection", 0, 0)
            for round_tag, kind in enumerate(("bn_stats", "dev_loss"), 2):
                # The reference recalibrates the shared model's BN
                # buffers; start each kind from the broadcast again.
                ctx.server.load_into_model()
                masks_blob, payload = packer.publish(
                    ctx.model, ctx.server.masks, token
                )
                runtime.install(
                    round_tag, token, masks_blob, bytes(payload.to_wire())
                )
                sweep = SelectionPass(
                    kind=kind, batch_size=16, mask_token=token,
                    masks=ctx.server.masks,
                )
                expected = SerialExecutor().run_selection(
                    ctx, clients, sweep
                )
                got = [
                    runtime.select(client.client_id, kind, 16)
                    for client in clients
                ]
                if kind == "dev_loss":
                    assert got == expected
                    continue
                for stats, want in zip(got, expected):
                    assert stats.keys() == want.keys()
                    for name, (mean, var) in want.items():
                        assert np.array_equal(stats[name][0], mean), name
                        assert np.array_equal(stats[name][1], var), name
        finally:
            runtime.close()

    def test_masks_blob_roundtrip(self):
        from repro.fl.executor import _pack_masks_blob, _unpack_masks_blob
        from repro.sparse.mask import MaskSet

        rng = np.random.default_rng(0)
        masks = MaskSet(
            {
                "a": rng.random((8, 3, 3, 3)) < 0.2,
                "b": rng.random((5, 7)) < 0.7,
                "c": np.zeros((4,), dtype=bool),
            }
        )
        restored = _unpack_masks_blob(_pack_masks_blob(masks))
        assert set(restored.layer_names()) == set(masks.layer_names())
        for name, mask in masks.items():
            np.testing.assert_array_equal(restored[name], mask)


class TestBroadcastArena:
    def test_arena_grows_when_payload_grows(self):
        executor = ProcessPoolClientExecutor(max_workers=1)
        arena = executor._ensure_arena(1000)
        first_name = executor._arena_name
        assert arena.size >= 1000
        same = executor._ensure_arena(500)
        assert executor._arena_name == first_name  # reused, not remapped
        bigger = executor._ensure_arena(arena.size + 1)
        assert executor._arena_name != first_name
        assert bigger.size >= arena.size + 1
        executor.close()

    def test_close_releases_arena(self):
        executor = ProcessPoolClientExecutor(max_workers=1)
        executor._ensure_arena(128)
        name = executor._arena_name
        executor.close()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
