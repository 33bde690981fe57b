"""Persist experiment results to JSON for later analysis.

Benchmark runs are expensive; this module saves :class:`RunResult`
records (including the full per-round trajectory) so tables and plots
can be regenerated without re-running the federation.

Writes are crash-safe: the payload lands in a sibling temp file which
is fsync'd and moved into place with :func:`os.replace` — the same
discipline as :func:`repro.nn.checkpoint.save_run_checkpoint` — so a
process killed mid-dump leaves the previous store intact instead of a
torn JSON file.

Format history: v2 added the PR-8 failure accounting (per-round
``faults_injected``/``retries``/``quarantined_uploads``/
``recovery_actions`` plus the structured ``failures`` log) to the
round-trip; v1 files load leniently with those fields defaulted.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path

from ..fl.faults import FailureRecord
from ..metrics.tracker import RoundRecord, RunResult

__all__ = ["save_results", "load_results", "result_to_record",
           "record_to_result", "save_records", "atomic_write_json"]

_FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, _FORMAT_VERSION)


def atomic_write_json(path: str | Path, payload: dict) -> None:
    """Dump ``payload`` to ``path`` via write-temp-fsync-``os.replace``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w") as handle:
        json.dump(payload, handle, indent=2, default=str)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def result_to_record(result: RunResult) -> dict:
    """Full JSON-safe dict including the per-round trajectory."""
    record = result.to_dict()
    record["rounds"] = [asdict(r) for r in result.rounds]
    return record


def record_to_result(record: dict) -> RunResult:
    """Rebuild a :class:`RunResult` from :func:`result_to_record` output.

    Lenient on fields newer than the record (v1 files carry no failure
    accounting): missing counters take the dataclass defaults (zero)
    and the failure log defaults to empty, so old stores keep loading.
    """
    result = RunResult(
        method=record["method"],
        dataset=record["dataset"],
        model=record["model"],
        target_density=record["target_density"],
    )
    for row in record.get("rounds", []):
        result.record_round(RoundRecord(**row))
    result.memory_footprint_bytes = record.get("memory_footprint_bytes", 0)
    result.selection_comm_bytes = record.get("selection_comm_bytes", 0)
    result.selection_flops = record.get("selection_flops", 0.0)
    result.metadata = dict(record.get("metadata", {}))
    result.failures = [
        FailureRecord(**row) for row in record.get("failures", [])
    ]
    return result


def save_records(records: list[dict], path: str | Path) -> None:
    """Atomically write already-encoded result records to a store file.

    This is the byte-level writer behind :func:`save_results`; the
    sweep orchestrator uses it directly so an assembled store is
    byte-identical whether the records came from live runs or from
    per-run files written by an earlier (possibly killed) sweep.
    """
    atomic_write_json(path, {
        "format_version": _FORMAT_VERSION,
        "results": records,
    })


def save_results(results: list[RunResult], path: str | Path) -> None:
    """Write a list of results to a JSON file (creates parent dirs)."""
    save_records([result_to_record(r) for r in results], path)


def load_results(path: str | Path) -> list[RunResult]:
    """Read results written by :func:`save_results`.

    Accepts the current format and the lenient v1 read path; anything
    else raises.
    """
    with Path(path).open() as handle:
        payload = json.load(handle)
    version = payload.get("format_version")
    if version not in _SUPPORTED_VERSIONS:
        raise ValueError(
            f"unsupported results format version {version!r} "
            f"(expected one of {list(_SUPPORTED_VERSIONS)})"
        )
    return [record_to_result(r) for r in payload["results"]]
