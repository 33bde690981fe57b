"""Property and validation tests for the sparse round-transport codec."""

import numpy as np
import pytest

from repro.fl.aggregation import (
    HierarchicalAggregator,
    weighted_average_states,
)
from repro.fl.payload import (
    ModelBinding,
    PackedPayload,
    PayloadFormatError,
    TensorSpec,
    build_mask_indices,
    pack_model_state,
    pack_state,
    packed_nbytes,
    unpack_into_model,
    unpack_state,
)
from repro.fl.server import Server
from repro.fl.state import get_state
from repro.nn.models import build_model
from repro.sparse.mask import MaskSet
from repro.sparse.storage import sparse_bytes


def _random_state_and_masks(rng, densities):
    """A synthetic multi-tensor state with one mask per density."""
    shapes = [(16, 8, 3, 3), (32, 16), (7,), (5, 3)]
    state = {}
    masks = {}
    for i, (shape, density) in enumerate(zip(shapes, densities)):
        name = f"t{i}"
        value = rng.normal(size=shape).astype(np.float32)
        mask = rng.random(shape) < density
        # Masked states carry exact zeros at pruned positions.
        state[name] = np.where(mask, value, np.float32(0.0))
        masks[name] = mask
    state["dense_extra"] = rng.normal(size=(4, 4)).astype(np.float32)
    state["buffer::bn.running_var"] = (
        rng.random(12).astype(np.float32) + 0.5
    )
    return state, MaskSet(masks)


def _fold(uploads, counts, fold=None):
    """FedAvg through the round's fold (optionally a restarted one)."""
    if fold is None:
        fold = HierarchicalAggregator(counts)
    else:
        fold.restart(counts)
    for upload in uploads:
        fold.add(upload)
    return fold.finish()


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(5))
    def test_pack_unpack_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        densities = rng.uniform(0.0, 1.0, size=4)
        state, masks = _random_state_and_masks(rng, densities)
        payload = pack_state(state, masks)
        restored = unpack_state(payload)
        assert set(restored) == set(state)
        for name in state:
            a, b = state[name], restored[name]
            assert a.shape == b.shape
            # Bit-exact: the test states hold +0.0 at pruned positions,
            # so even the zeros round-trip identically.
            assert (a.view(np.uint32) == b.view(np.uint32)).all(), name

    def test_wire_roundtrip_preserves_everything(self):
        rng = np.random.default_rng(3)
        state, masks = _random_state_and_masks(rng, [0.1, 0.9, 0.0, 1.0])
        payload = pack_state(state, masks)
        parsed = PackedPayload.from_bytes(payload.to_bytes())
        assert parsed.specs == payload.specs
        assert parsed.nbytes == payload.nbytes
        assert (parsed.buffer == payload.buffer).all()
        restored = unpack_state(parsed)
        for name in state:
            np.testing.assert_array_equal(restored[name], state[name])

    def test_write_into_matches_to_bytes(self):
        rng = np.random.default_rng(4)
        state, masks = _random_state_and_masks(rng, [0.2, 0.5, 0.8, 0.4])
        payload = pack_state(state, masks)
        target = bytearray(payload.wire_nbytes + 32)
        written = payload.write_into(target, offset=16)
        assert written == payload.wire_nbytes
        assert bytes(target[16 : 16 + written]) == payload.to_bytes()

    def test_dense_fallback_above_crossover(self):
        rng = np.random.default_rng(0)
        # 90% density: COO (8 bytes/active) would exceed dense storage.
        state, masks = _random_state_and_masks(rng, [0.9, 0.9, 0.9, 0.9])
        payload = pack_state(state, masks)
        by_name = {s.name: s for s in payload.specs}
        for name in ("t0", "t1"):
            assert by_name[name].encoding == "dense"
        assert by_name["dense_extra"].encoding == "dense"

    def test_sparse_encoding_below_crossover(self):
        rng = np.random.default_rng(0)
        state, masks = _random_state_and_masks(rng, [0.1, 0.1, 0.1, 0.1])
        payload = pack_state(state, masks)
        by_name = {s.name: s for s in payload.specs}
        assert by_name["t0"].encoding == "sparse"
        assert by_name["t0"].num_active == masks.layer_active("t0")

    def test_zero_density_costs_zero_bytes(self):
        rng = np.random.default_rng(1)
        state, masks = _random_state_and_masks(rng, [0.0, 0.0, 0.0, 0.0])
        payload = pack_state(state, masks)
        by_name = {s.name: s for s in payload.specs}
        assert by_name["t0"].nbytes == 0
        restored = unpack_state(payload)
        np.testing.assert_array_equal(restored["t0"], 0.0)


class TestWireFlags:
    def test_flagged_wire_is_quarantined_by_ingest(self):
        # The header's flags byte carries no defined bits: a wire with
        # one set is malformed outside input, rejected before it can
        # reach the aggregation.
        model = build_model("small_cnn", num_classes=10, seed=0)
        server = Server(model)
        wire = bytearray(pack_model_state(model, server.masks).to_bytes())
        wire[5] |= 0x01  # 4s magic, B version, B flags
        with pytest.raises(PayloadFormatError, match="flags"):
            PackedPayload.from_bytes(bytes(wire))
        ingest = server.begin_ingest(1)
        status = ingest.submit(
            0, 0, mask_epoch=server.mask_epoch, wire=bytes(wire)
        )
        assert status == "quarantined"
        assert [r.kind for r in ingest.records] == ["payload_format"]
        assert ingest.accepted_clients == []


class TestValidation:
    def _payload(self):
        rng = np.random.default_rng(2)
        state, masks = _random_state_and_masks(rng, [0.2, 0.5, 0.7, 0.1])
        return pack_state(state, masks)

    def test_offset_overflow_raises(self):
        payload = self._payload()
        specs = list(payload.specs)
        bad = specs[-1]
        specs[-1] = TensorSpec(
            bad.name, bad.shape, bad.encoding,
            payload.nbytes + 8, bad.num_active,
        )
        with pytest.raises(PayloadFormatError, match="offset|segment"):
            PackedPayload(tuple(specs), payload.buffer).validate()

    def test_truncated_buffer_raises(self):
        payload = self._payload()
        with pytest.raises(PayloadFormatError, match="overflow|describe"):
            PackedPayload(payload.specs, payload.buffer[:-8]).validate()

    def test_truncated_wire_bytes_raise(self):
        blob = self._payload().to_bytes()
        with pytest.raises(PayloadFormatError, match="truncated"):
            PackedPayload.from_bytes(blob[: len(blob) - 4])

    def test_corrupted_spec_header_raises_payload_error(self):
        blob = bytearray(self._payload().to_bytes())
        # Scribble over the pickled spec table (starts right after the
        # fixed prefix); parsing must surface PayloadFormatError, not a
        # raw UnpicklingError/TypeError.
        blob[24:40] = b"\xff" * 16
        with pytest.raises(PayloadFormatError, match="header"):
            PackedPayload.from_bytes(bytes(blob))

    def test_bad_magic_raises(self):
        blob = bytearray(self._payload().to_bytes())
        blob[:4] = b"NOPE"
        with pytest.raises(PayloadFormatError, match="magic"):
            PackedPayload.from_bytes(bytes(blob))

    def test_out_of_range_sparse_index_raises(self):
        payload = self._payload()
        spec = next(s for s in payload.specs if s.encoding == "sparse")
        buffer = payload.buffer.copy()
        idx = np.frombuffer(
            buffer, dtype=np.int32, count=spec.num_active,
            offset=spec.offset,
        )
        idx[-1] = spec.size + 5
        with pytest.raises(PayloadFormatError, match="out of range"):
            PackedPayload(payload.specs, buffer).validate()

    def test_unsorted_sparse_indices_raise(self):
        payload = self._payload()
        spec = next(
            s for s in payload.specs
            if s.encoding == "sparse" and s.num_active >= 2
        )
        buffer = payload.buffer.copy()
        idx = np.frombuffer(
            buffer, dtype=np.int32, count=spec.num_active,
            offset=spec.offset,
        )
        idx[0], idx[1] = idx[1], idx[0]
        with pytest.raises(PayloadFormatError, match="increasing"):
            PackedPayload(payload.specs, buffer).validate()

    def test_duplicate_tensor_raises(self):
        payload = self._payload()
        specs = (payload.specs[0],) + payload.specs
        with pytest.raises(PayloadFormatError, match="duplicate"):
            PackedPayload(specs, payload.buffer).validate()

    def test_shape_mismatch_raises_before_model_write(self):
        model = build_model("small_cnn", num_classes=10, seed=0)
        masks = MaskSet.dense(model)
        payload = pack_model_state(model, masks)
        specs = list(payload.specs)
        first = specs[0]
        specs[0] = TensorSpec(
            first.name, (1,) + first.shape, first.encoding,
            first.offset, first.num_active,
        )
        before = get_state(model)
        with pytest.raises(PayloadFormatError, match="shape mismatch"):
            unpack_into_model(
                PackedPayload(tuple(specs), payload.buffer),
                model,
                validate=False,
            )
        after = get_state(model)
        for name in before:  # the model was not half-written
            np.testing.assert_array_equal(before[name], after[name])

    def test_unknown_parameter_raises(self):
        model = build_model("small_cnn", num_classes=10, seed=0)
        payload = pack_model_state(model, MaskSet.dense(model))
        specs = list(payload.specs)
        first = specs[0]
        specs[0] = TensorSpec(
            "not_a_real_param", first.shape, first.encoding,
            first.offset, first.num_active,
        )
        with pytest.raises(PayloadFormatError, match="unknown"):
            unpack_into_model(
                PackedPayload(tuple(specs), payload.buffer),
                model,
                validate=False,
            )


class TestModelPaths:
    def _masked_model(self, density=0.25, seed=0):
        model = build_model("small_cnn", num_classes=10, seed=seed)
        rng = np.random.default_rng(seed + 1)
        masks = {}
        for name, param in model.named_parameters():
            if param.prunable:
                mask = rng.random(param.shape) < density
                mask.reshape(-1)[0] = True
                masks[name] = mask
        mask_set = MaskSet(masks)
        mask_set.apply(model)
        return model, mask_set

    def test_pack_model_state_matches_pack_state(self):
        model, masks = self._masked_model()
        from_model = pack_model_state(model, masks)
        from_dict = pack_state(get_state(model), masks)
        assert from_model.specs == from_dict.specs
        assert (from_model.buffer == from_dict.buffer).all()

    def test_unpack_into_model_restores_exactly(self):
        model, masks = self._masked_model()
        reference = get_state(model)
        payload = pack_model_state(model, masks)
        # Scribble over the model, then restore.
        for _, param in model.named_parameters():
            param.data = param.data + 1.0
        unpack_into_model(payload, model)
        for name, value in get_state(model).items():
            np.testing.assert_array_equal(value, reference[name], err_msg=name)

    def test_binding_assume_masked_restore_matches_full(self):
        model, masks = self._masked_model()
        reference = get_state(model)
        payload = pack_model_state(model, masks)
        binding = ModelBinding(model, payload.specs)
        # Perturb only active positions (as masked SGD would), keeping
        # pruned positions zero; the scatter-only restore must be exact.
        for name, param in model.named_parameters():
            param.data = param.data * 1.5
            param.apply_mask()
        binding.restore(payload, assume_masked=True)
        for name, value in get_state(model).items():
            np.testing.assert_array_equal(value, reference[name], err_msg=name)

    def test_binding_pack_matches_pack_model_state(self):
        model, masks = self._masked_model()
        payload = pack_model_state(model, masks)
        binding = ModelBinding(model, payload.specs)
        packed = binding.pack(indices=build_mask_indices(masks))
        assert packed.specs == payload.specs
        assert (packed.buffer == payload.buffer).all()

    def test_packed_nbytes_matches_measured_and_storage_model(self):
        for density in (0.0, 0.1, 0.5, 1.0):
            model, masks = (
                self._masked_model(density=density)
                if density > 0
                else self._masked_model(density=0.0001)
            )
            payload = pack_model_state(model, masks)
            predicted = packed_nbytes(model, masks)
            assert payload.nbytes == predicted
            expected = 0
            for name, param in model.named_parameters():
                if name in masks:
                    expected += sparse_bytes(
                        masks.layer_active(name), param.size
                    )
                else:
                    expected += param.size * 4
            for _, buf in model.named_buffers():
                expected += int(buf.size) * 4
            assert predicted == expected


class TestModelBindingRepack:
    def test_repack_after_inplace_change_matches_fresh_pack(self):
        model = build_model("small_cnn", num_classes=10, seed=0)
        rng = np.random.default_rng(21)
        densities = iter([0.1, 0.5, 0.9, 0.3, 0.05, 0.7])
        masks = {}
        for name, param in model.named_parameters():
            if param.prunable:
                mask = rng.random(param.shape) < next(densities, 0.2)
                mask.reshape(-1)[0] = True
                masks[name] = mask
        mask_set = MaskSet(masks)
        mask_set.apply(model)
        indices = build_mask_indices(mask_set)
        binding = ModelBinding.for_masks(model, mask_set)
        binding.pack(indices=indices)
        # Change the model in place (as a round's load_into_model does)
        # and re-pack: the persistent buffer must track the new values.
        for _, param in model.named_parameters():
            param.data *= 2.0
        for _, buf in model.named_buffers():
            buf += 1.0
        repacked = binding.pack(indices=indices)
        for fresh in (
            pack_model_state(model, mask_set),
            pack_state(get_state(model), mask_set),
        ):
            assert repacked.specs == fresh.specs
            assert (repacked.buffer == fresh.buffer).all()

    def test_binding_pack_requires_indices_for_sparse(self):
        model = build_model("small_cnn", num_classes=10, seed=0)
        rng = np.random.default_rng(23)
        masks = {}
        for name, param in model.named_parameters():
            if param.prunable:
                mask = rng.random(param.shape) < 0.1
                mask.reshape(-1)[0] = True
                masks[name] = mask
        mask_set = MaskSet(masks)
        mask_set.apply(model)
        payload = pack_model_state(model, mask_set)
        binding = ModelBinding(model, payload.specs)
        with pytest.raises(ValueError, match="active-index"):
            binding.pack()


class TestPackedAggregation:
    def test_matches_dense_fedavg(self):
        rng = np.random.default_rng(11)
        densities = [0.15, 0.6, 0.05, 0.95]
        states = []
        masks = None
        for k in range(4):
            state, mask_set = _random_state_and_masks(
                np.random.default_rng(100 + k), densities
            )
            states.append(state)
            masks = mask_set  # identical layout every draw (same seed path)
        # Same mask for all clients (FedAvg shares the server mask).
        masks = MaskSet(
            {n: m.copy() for n, m in masks.items()}
        )
        states = [
            {
                k: (
                    np.where(masks[k], v, np.float32(0.0))
                    if k in masks
                    else v
                )
                for k, v in s.items()
            }
            for s in states
        ]
        counts = [120, 80, 200, 40]
        payloads = [pack_state(s, masks) for s in states]
        dense = weighted_average_states(states, counts)
        packed = _fold(payloads, counts)
        assert set(dense) == set(packed)
        for name in dense:
            np.testing.assert_array_equal(
                dense[name], packed[name], err_msg=name
            )

    def test_fold_restart_is_identical(self):
        rng = np.random.default_rng(12)
        state, masks = _random_state_and_masks(rng, [0.2, 0.4, 0.6, 0.8])
        payloads = [pack_state(state, masks) for _ in range(3)]
        counts = [10, 20, 30]
        fold = HierarchicalAggregator(counts)
        first = _fold(payloads, counts, fold)
        second = _fold(payloads, counts, fold)
        for name in first:
            np.testing.assert_array_equal(first[name], second[name])

    def test_same_counts_different_indices_rejected(self):
        # Two masks with identical per-tensor active counts produce
        # equal spec tuples; only the index segments reveal the
        # mismatch, and aggregating across them must refuse.
        rng = np.random.default_rng(31)
        value = rng.normal(size=(6, 8)).astype(np.float32)
        mask_a = np.zeros((6, 8), dtype=bool)
        mask_b = np.zeros((6, 8), dtype=bool)
        mask_a.reshape(-1)[:4] = True
        mask_b.reshape(-1)[-4:] = True
        a = pack_state(
            {"w": np.where(mask_a, value, np.float32(0.0))},
            MaskSet({"w": mask_a}),
        )
        b = pack_state(
            {"w": np.where(mask_b, value, np.float32(0.0))},
            MaskSet({"w": mask_b}),
        )
        assert a.specs == b.specs  # counts collide on purpose
        with pytest.raises(ValueError, match="active indices"):
            _fold([a, b], [1, 1])

    def test_mismatched_specs_rejected(self):
        rng = np.random.default_rng(13)
        state, masks = _random_state_and_masks(rng, [0.2, 0.4, 0.6, 0.8])
        other_masks = MaskSet(
            {n: ~m if n == "t0" else m for n, m in masks.items()}
        )
        a = pack_state(state, masks)
        b = pack_state(
            {
                k: (
                    np.where(other_masks[k], v, np.float32(0.0))
                    if k in other_masks
                    else v
                )
                for k, v in state.items()
            },
            other_masks,
        )
        with pytest.raises(ValueError, match="mismatched specs"):
            _fold([a, b], [1, 1])


class TestFoldDenseAggregation:
    def test_restarted_fold_bitwise_matches_allocating_path(self):
        rng = np.random.default_rng(14)
        states = [
            {
                "w": rng.normal(size=(33, 17)).astype(np.float32),
                "b": rng.normal(size=(9,)).astype(np.float32),
            }
            for _ in range(5)
        ]
        counts = [3, 5, 7, 11, 13]
        plain = weighted_average_states(states, counts)
        # A fold whose buffers last held another cohort (a packed one,
        # of another layout) must not leak anything into this one.
        fold = HierarchicalAggregator([1])
        fold.add(pack_state({"w": states[0]["w"][:2]}, MaskSet({})))
        fold.finish()
        fast = _fold(states, counts, fold)
        for name in plain:
            assert (
                plain[name].view(np.uint32) == fast[name].view(np.uint32)
            ).all(), name
