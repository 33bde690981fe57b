"""Tests for the networked executor (PR 9).

Covers the framed localhost protocol (round-trip, damage detection),
transport configuration and its CLI flags, session registration /
heartbeat liveness / resume, byte-for-byte parity between the
``network`` executor and the serial reference, churn hardening
(connection drops, server restarts, worker crashes, mid-round faults),
cross-executor checkpoint resume, and the virtual client backend under
worker executors.
"""

import argparse
import pickle
import socket

import numpy as np
import pytest

from repro.data import SyntheticSpec, generate
from repro.experiments import run_experiment
from repro.fl import FLConfig, FederatedContext
from repro.fl.state import get_state
from repro.fl.transport import (
    MSG,
    SessionTable,
    TransportConfig,
    TransportError,
    recv_frame,
    send_frame,
)
from repro.nn.models import build_model

#: Transport knobs for tests: fast heartbeats (so liveness and polls
#: are snappy) with a generous request timeout (so a loaded CI machine
#: never trips the reassignment deadline spuriously).
_NET = dict(heartbeat_interval=0.2, transport_timeout=20.0)


def _make_context(**overrides):
    train, test = generate(
        SyntheticSpec(
            name="t", num_classes=4, num_train=160, num_test=48,
            image_size=8, noise=0.4, modes_per_class=1, seed=5,
        )
    )
    model = build_model(
        "resnet18", num_classes=4, width_multiplier=0.125, seed=2
    )
    kwargs = dict(
        num_clients=3, rounds=2, local_epochs=1, batch_size=16,
        lr=0.05, dirichlet_alpha=0.5, seed=0,
    )
    kwargs.update(overrides)
    return FederatedContext(
        model, train, test, FLConfig(**kwargs),
        dataset_name="unit", model_name="resnet18",
    )


def _make_network_context(**overrides):
    return _make_context(
        executor="network", executor_workers=2,
        heartbeat_interval=0.2, transport_timeout=20.0, **overrides,
    )


def _assert_states_identical(a, b):
    sa, sb = get_state(a.model), get_state(b.model)
    assert set(sa) == set(sb)
    for name in sa:
        np.testing.assert_array_equal(sa[name], sb[name], err_msg=name)


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_roundtrip_meta_and_blob(self):
        a, b = socket.socketpair()
        try:
            blob = bytes(range(256)) * 37
            send_frame(a, MSG.UPLOAD, {"client_id": 7, "attempt": 2}, blob)
            kind, meta, got = recv_frame(b)
            assert kind == MSG.UPLOAD
            assert meta == {"client_id": 7, "attempt": 2}
            assert got == blob
        finally:
            a.close()
            b.close()

    def test_roundtrip_empty_sections(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, MSG.HEARTBEAT)
            kind, meta, blob = recv_frame(b)
            assert kind == MSG.HEARTBEAT
            assert meta == {}
            assert blob == b""
        finally:
            a.close()
            b.close()

    def test_bad_magic_rejected(self):
        from repro.fl.transport import _FRAME

        a, b = socket.socketpair()
        try:
            a.sendall(_FRAME.pack(b"NOPE", MSG.UPLOAD, 0, 0))
            with pytest.raises(TransportError, match="magic"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_truncated_stream_rejected(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, MSG.UPLOAD, {"client_id": 1}, b"x" * 64)
            # Reader sees a clean close mid-frame, not a hang.
            whole = b.recv(1 << 20)
            a.close()
            c, d = socket.socketpair()
            try:
                c.sendall(whole[: len(whole) - 10])
                c.close()
                with pytest.raises(TransportError, match="closed"):
                    recv_frame(d)
            finally:
                d.close()
        finally:
            b.close()

    def test_oversized_sections_rejected(self):
        from repro.fl.transport import _FRAME, _MAX_BLOB, _MAX_META

        a, b = socket.socketpair()
        try:
            a.sendall(
                _FRAME.pack(b"FTNP", MSG.UPLOAD, _MAX_META + 1, 0)
            )
            with pytest.raises(TransportError, match="too large"):
                recv_frame(b)
            a2, b2 = socket.socketpair()
            try:
                a2.sendall(
                    _FRAME.pack(b"FTNP", MSG.UPLOAD, 0, _MAX_BLOB + 1)
                )
                with pytest.raises(TransportError, match="too large"):
                    recv_frame(b2)
            finally:
                a2.close()
                b2.close()
        finally:
            a.close()
            b.close()


# ----------------------------------------------------------------------
# TransportConfig + CLI flags
# ----------------------------------------------------------------------
class TestTransportConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(timeout=0.0),
            dict(timeout=-1.0),
            dict(heartbeat_interval=0.0),
            dict(heartbeat_interval=-0.5),
            dict(timeout=1.0, heartbeat_interval=1.0),
            dict(timeout=1.0, heartbeat_interval=2.0),
            dict(max_reconnects=-1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TransportConfig(**kwargs)

    def test_derived_knobs(self):
        config = TransportConfig(
            timeout=12.0, heartbeat_interval=0.5, max_reconnects=2
        )
        assert config.liveness_window == pytest.approx(2.5)
        assert config.poll_interval == pytest.approx(0.1)
        retry = config.retry_policy()
        assert retry.max_attempts == 3
        assert retry.backoff_seconds == pytest.approx(0.125)
        assert retry.timeout_seconds == pytest.approx(12.0)

    def test_poll_interval_is_clamped(self):
        slow = TransportConfig(timeout=120.0, heartbeat_interval=10.0)
        assert slow.poll_interval == 0.25
        fast = TransportConfig(timeout=1.0, heartbeat_interval=0.02)
        assert fast.poll_interval == 0.01

    def test_flconfig_threads_and_validates_transport(self):
        config = FLConfig(
            num_clients=2, rounds=1, transport_timeout=9.0,
            heartbeat_interval=0.3, max_reconnects=5,
        )
        transport = config.transport_config()
        assert transport.timeout == 9.0
        assert transport.heartbeat_interval == 0.3
        assert transport.max_reconnects == 5
        with pytest.raises(ValueError, match="timeout"):
            FLConfig(num_clients=2, rounds=1, transport_timeout=0.0)
        with pytest.raises(ValueError, match="heartbeat"):
            FLConfig(
                num_clients=2, rounds=1,
                transport_timeout=1.0, heartbeat_interval=2.0,
            )
        with pytest.raises(ValueError, match="max_reconnects"):
            FLConfig(num_clients=2, rounds=1, max_reconnects=-1)


class TestCLIFlags:
    def test_validators_reject_garbage(self):
        from repro.cli import _nonnegative_int, _positive_seconds

        for bad in ("nope", "0", "-3", ""):
            with pytest.raises(argparse.ArgumentTypeError):
                _positive_seconds(bad)
        for bad in ("nope", "-1", "1.5", ""):
            with pytest.raises(argparse.ArgumentTypeError):
                _nonnegative_int(bad)
        assert _positive_seconds("2.5") == 2.5
        assert _nonnegative_int("0") == 0

    def test_parser_rejects_bad_transport_flags(self, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        base = ["run", "--method", "fedavg"]
        for flags in (
            ["--transport-timeout", "0"],
            ["--heartbeat-interval", "-1"],
            ["--max-reconnects", "-2"],
            ["--max-reconnects", "1.5"],
        ):
            with pytest.raises(SystemExit):
                parser.parse_args(base + flags)
            capsys.readouterr()

    def test_parser_accepts_and_types_transport_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "--method", "fedavg", "--executor", "network",
             "--transport-timeout", "15", "--heartbeat-interval", "0.5",
             "--max-reconnects", "2"]
        )
        assert args.transport_timeout == 15.0
        assert args.heartbeat_interval == 0.5
        assert args.max_reconnects == 2
        chaos = build_parser().parse_args(
            ["chaos", "--executor", "network",
             "--transport-timeout", "15", "--heartbeat-interval", "0.5"]
        )
        assert chaos.transport_timeout == 15.0
        assert chaos.max_reconnects is None


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------
class TestSessionTable:
    def _table(self):
        return SessionTable(
            TransportConfig(timeout=10.0, heartbeat_interval=0.5)
        )

    def test_tokens_are_counter_based_and_fresh(self):
        table = self._table()
        first, resumed = table.register(worker_id=0)
        assert not resumed
        assert first.token == "w0-s1"
        second, resumed = table.register(worker_id=3)
        assert not resumed
        assert second.token == "w3-s2"
        assert len(table) == 2

    def test_known_token_resumes(self):
        table = self._table()
        session, _ = table.register(worker_id=1)
        again, resumed = table.register(worker_id=1, token=session.token)
        assert resumed
        assert again is session
        assert again.resumes == 1
        assert len(table) == 1

    def test_unknown_token_registers_fresh(self):
        table = self._table()
        session, resumed = table.register(worker_id=1, token="w1-s99")
        assert not resumed
        assert session.token != "w1-s99"

    def test_beat_unknown_session_raises(self):
        table = self._table()
        with pytest.raises(KeyError):
            table.beat("w0-s1")

    def test_expiry_uses_liveness_window(self):
        table = self._table()
        session, _ = table.register(worker_id=0)
        window = table.config.liveness_window
        assert table.expired(now=session.last_seen + window / 2) == []
        expired = table.expired(now=session.last_seen + window + 0.001)
        assert [s.token for s in expired] == [session.token]

    def test_clear_drops_everything(self):
        table = self._table()
        table.register(worker_id=0)
        table.register(worker_id=1)
        dropped = table.clear()
        assert len(dropped) == 2
        assert len(table) == 0


# ----------------------------------------------------------------------
# Localhost parity: the golden contract
# ----------------------------------------------------------------------
class TestLocalhostParity:
    def test_fedavg_network_run_bitwise_identical_to_serial(self):
        common = dict(scale="tiny", seed=0, rounds=2, **_NET)
        serial = run_experiment(
            "fedavg", "resnet18", "cifar10", 1.0, **common
        )
        network = run_experiment(
            "fedavg", "resnet18", "cifar10", 1.0,
            executor="network", **common,
        )
        # Every round-record field, the simulated clock included: with
        # faults off, the networked run is byte-for-byte the serial run.
        assert [vars(r) for r in serial.rounds] == [
            vars(r) for r in network.rounds
        ]
        assert network.final_accuracy == serial.final_accuracy

    def test_fedtiny_mask_epoch_churn_stays_identical(self):
        # fedtiny reshapes the masks mid-run (mask_epoch bumps), so the
        # broadcast cache, worker-side rebinding, and stale-epoch
        # admission all get exercised across epochs.
        common = dict(scale="tiny", seed=0, rounds=3, **_NET)
        serial = run_experiment(
            "fedtiny", "resnet18", "cifar10", 0.1, pool_size=2, **common
        )
        network = run_experiment(
            "fedtiny", "resnet18", "cifar10", 0.1, pool_size=2,
            executor="network", **common,
        )
        assert [vars(r) for r in serial.rounds] == [
            vars(r) for r in network.rounds
        ]


# ----------------------------------------------------------------------
# Churn hardening
# ----------------------------------------------------------------------
class TestChurn:
    def test_connection_drop_between_rounds_resumes_identically(self):
        serial = _make_context()
        network = _make_network_context()
        try:
            serial.run_fedavg_round()
            network.run_fedavg_round()
            # Sever a live worker's session + socket; the worker must
            # reconnect, re-register, and keep serving.
            assert network.executor.drop_connection(network) is True
            assert (
                network.executor._server.stats["dropped_sessions"] == 1
            )
            serial.run_fedavg_round()
            network.run_fedavg_round()
            _assert_states_identical(serial, network)
        finally:
            serial.close()
            network.close()

    def test_server_restart_between_rounds_resumes_identically(self):
        serial = _make_context()
        network = _make_network_context()
        try:
            serial.run_fedavg_round()
            network.run_fedavg_round()
            assert network.executor.restart_server(network) is True
            stats = network.executor._server.stats
            assert stats["restarts"] == 1
            serial.run_fedavg_round()
            network.run_fedavg_round()
            _assert_states_identical(serial, network)
            # Workers found their tokens unknown and re-registered.
            assert stats["registrations"] > 2
        finally:
            serial.close()
            network.close()

    def test_worker_crash_respawns_and_stays_identical(self):
        serial = _make_context()
        network = _make_network_context()
        try:
            serial.run_fedavg_round()
            network.run_fedavg_round()
            assert network.executor.crash_worker(network) is True
            serial.run_fedavg_round()
            network.run_fedavg_round()
            _assert_states_identical(serial, network)
        finally:
            serial.close()
            network.close()

    def test_in_process_backends_decline_transport_hooks(self):
        with _make_context() as ctx:
            assert ctx.executor.drop_connection(ctx) is False
            assert ctx.executor.restart_server(ctx) is False

    def test_real_latencies_are_observed(self):
        with _make_network_context() as ctx:
            ctx.run_fedavg_round()
            executor = ctx.executor
            assert executor.last_round_real_seconds > 0.0
            participants = {c.client_id for c in ctx.last_participants}
            assert set(executor.last_latencies) == participants
            assert all(
                v >= 0.0 for v in executor.last_latencies.values()
            )
            assert ctx.real_time_seconds > 0.0
            # The simulated clock stays authoritative (parity contract):
            # wall-clock only ever lands on the real-time channel.
            assert ctx.real_time_seconds != ctx.sim_time


class TestNetworkChaos:
    def test_transport_faults_match_serial_counters(self):
        # bad_transport now includes connection_drop and slow_client:
        # mid-round, the fault runner severs real sessions and charges
        # real-latency waits, yet the adjudicated counters and metrics
        # must match the serial twin bitwise (only the simulated clock
        # and executor-specific recovery accounting may differ).
        common = dict(scale="tiny", seed=0, rounds=3, **_NET)
        serial = run_experiment(
            "fedavg", "resnet18", "cifar10", 1.0,
            faults="bad_transport", **common,
        )
        network = run_experiment(
            "fedavg", "resnet18", "cifar10", 1.0,
            faults="bad_transport", executor="network", **common,
        )
        skip = ("sim_time_seconds", "recovery_actions")
        assert [
            {k: v for k, v in vars(r).items() if k not in skip}
            for r in serial.rounds
        ] == [
            {k: v for k, v in vars(r).items() if k not in skip}
            for r in network.rounds
        ]
        assert network.total_faults_injected > 0

    def test_server_restart_fault_recovers(self):
        result = run_experiment(
            "fedavg", "resnet18", "cifar10", 1.0,
            faults="server_restart:0.5", executor="network",
            scale="tiny", seed=0, rounds=2, **_NET,
        )
        restarts = [
            f for f in result.failures if f.action == "restarted_server"
        ]
        assert restarts
        assert len(result.rounds) == 2


class TestNetworkCheckpointResume:
    def test_serial_checkpoint_resumes_under_network(self, tmp_path):
        # The checkpoint fingerprint deliberately excludes the executor:
        # a run killed under one backend resumes under another, bit for
        # bit — the "server restart mid-run" recovery story.
        ckpt = str(tmp_path / "ckpt")
        common = dict(scale="tiny", seed=0, checkpoint_dir=ckpt)
        full = run_experiment(
            "fedavg", "resnet18", "cifar10", 1.0, **common
        )
        import shutil

        shutil.rmtree(ckpt)
        run_experiment(
            "fedavg", "resnet18", "cifar10", 1.0, rounds=2, **common
        )
        resumed = run_experiment(
            "fedavg", "resnet18", "cifar10", 1.0,
            executor="network", resume=True, **dict(common, **_NET),
        )
        assert [vars(r) for r in full.rounds] == [
            vars(r) for r in resumed.rounds
        ]


# ----------------------------------------------------------------------
# Virtual clients under worker executors
# ----------------------------------------------------------------------
class TestVirtualBackendUnderWorkers:
    @pytest.mark.parametrize("backend", ["materialized", "virtual"])
    def test_virtual_directory_pickles_as_recipe(self, backend):
        # Workers receive the recipe whichever clients the master keeps.
        with _make_context(client_backend=backend) as ctx:
            directory = ctx.directory
            client = directory.materialize(0)
            client.rng.random(5)  # advance the stream past the prefix
            clone = pickle.loads(pickle.dumps(directory))
            assert clone.live_count == 0
            resumed = clone.materialize(0)
            assert (
                resumed.rng.bit_generator.state
                == client.rng.bit_generator.state
            )

    @pytest.mark.parametrize("executor", ["process", "network"])
    def test_virtual_backend_matches_serial(self, executor):
        serial = _make_context(client_backend="virtual")
        overrides = dict(client_backend="virtual", executor=executor,
                         executor_workers=2)
        if executor == "network":
            worker = _make_network_context(client_backend="virtual")
        else:
            worker = _make_context(**overrides)
        try:
            for _ in range(2):
                serial.run_fedavg_round()
                worker.run_fedavg_round()
            _assert_states_identical(serial, worker)
        finally:
            serial.close()
            worker.close()
