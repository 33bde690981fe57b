"""Tests for model checkpointing."""

import os

import numpy as np
import pytest

from repro.nn.checkpoint import (
    load_model,
    load_run_checkpoint,
    save_model,
    save_run_checkpoint,
)
from repro.nn.models import build_model
from repro.pruning import magnitude_mask_uniform


def _model(seed=3):
    return build_model(
        "resnet18", num_classes=4, width_multiplier=0.125, seed=seed
    )


class TestCheckpoint:
    def test_dense_roundtrip(self, tmp_path, rng):
        model = _model()
        path = tmp_path / "ckpt" / "model.npz"
        save_model(model, path)
        other = _model(seed=9)
        load_model(other, path)
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        model.eval()
        other.eval()
        np.testing.assert_allclose(model(x), other(x), rtol=1e-5)

    def test_masks_roundtrip(self, tmp_path):
        model = _model()
        masks = magnitude_mask_uniform(model, 0.1)
        masks.apply(model)
        path = tmp_path / "sparse.npz"
        save_model(model, path)
        other = _model(seed=9)
        load_model(other, path)
        assert other.density() == pytest.approx(model.density())
        for (_, p1), (_, p2) in zip(
            model.named_parameters(), other.named_parameters()
        ):
            if p1.mask is not None:
                np.testing.assert_array_equal(p1.mask, p2.mask)

    def test_unmasked_checkpoint_clears_existing_mask(self, tmp_path):
        dense = _model()
        path = tmp_path / "dense.npz"
        save_model(dense, path)
        sparse = _model(seed=9)
        magnitude_mask_uniform(sparse, 0.1).apply(sparse)
        load_model(sparse, path)
        assert sparse.density() == 1.0

    def test_buffers_roundtrip(self, tmp_path, rng):
        model = _model()
        model(rng.normal(size=(4, 3, 8, 8)).astype(np.float32))
        path = tmp_path / "bn.npz"
        save_model(model, path)
        other = _model(seed=9)
        load_model(other, path)
        np.testing.assert_allclose(
            other.stem_bn.running_mean, model.stem_bn.running_mean,
            rtol=1e-6,
        )

    def test_wrong_architecture_raises(self, tmp_path):
        model = _model()
        path = tmp_path / "m.npz"
        save_model(model, path)
        other = build_model(
            "resnet18", num_classes=4, width_multiplier=0.25, seed=0
        )
        with pytest.raises(ValueError):
            load_model(other, path)

    def test_missing_parameters_raise(self, tmp_path):
        model = _model()
        path = tmp_path / "m.npz"
        np.savez_compressed(path, **{"fc.weight": model.fc.weight.data})
        with pytest.raises(KeyError):
            load_model(model, path)


class TestRunCheckpointDurability:
    def test_temp_file_is_fsynced_before_replace(
        self, tmp_path, monkeypatch
    ):
        # A rename that reaches disk before the archive's bytes leaves
        # an empty checkpoint after a power cut: the temp file must be
        # fsync'd before it replaces the previous snapshot.
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            return real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.stat(src).st_ino, str(dst)))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        path = tmp_path / "run.npz"
        save_run_checkpoint(
            path,
            {"fc.weight": np.arange(6, dtype=np.float32)},
            {"fc.weight": np.array([1, 0, 1, 1, 0, 1], dtype=bool)},
            {"round_index": 3},
        )
        replaces = [e for e in events if e[0] == "replace"]
        assert len(replaces) == 1
        _, temp_inode, target = replaces[0]
        assert target == str(path)
        before = events[: events.index(replaces[0])]
        assert ("fsync", temp_inode) in before
        loaded = load_run_checkpoint(path)
        assert loaded.round_index == 3
        np.testing.assert_array_equal(
            loaded.state["fc.weight"], np.arange(6, dtype=np.float32)
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.npz"]
