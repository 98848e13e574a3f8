"""Schema guard for the committed BENCH_*.json performance trajectory.

The benchmarks record their headline numbers via
``benchmarks/_bench_record.record_bench`` (regen with ``REPRO_REGEN_BENCH=1``,
CI artifacts via ``REPRO_BENCH_OUT``).  This suite pins the recorder's
destination/merge semantics and validates every committed payload, so a
malformed regen cannot land silently.
"""

from __future__ import annotations

import importlib.util
import json
from numbers import Number
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"

_spec = importlib.util.spec_from_file_location(
    "_bench_record", BENCH_DIR / "_bench_record.py"
)
_bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_bench_record)

COMMITTED = sorted(BENCH_DIR.glob("BENCH_*.json"))


def _assert_numeric_leaves(mapping: dict, where: str) -> None:
    for key, value in mapping.items():
        if isinstance(value, dict):
            _assert_numeric_leaves(value, f"{where}.{key}")
        else:
            assert isinstance(value, Number) and not isinstance(value, bool), (
                f"{where}.{key} must be a number, got {value!r}"
            )


def test_expected_trajectory_files_are_committed() -> None:
    names = {path.name for path in COMMITTED}
    assert {
        "BENCH_matching.json",
        "BENCH_scenarios.json",
        "BENCH_delta_two.json",
    } <= names


@pytest.mark.parametrize("path", COMMITTED, ids=[p.name for p in COMMITTED])
def test_committed_payload_schema(path: Path) -> None:
    payload = json.loads(path.read_text())
    assert set(payload) == {"schema", "bench", "metrics", "context"}
    assert payload["schema"] == _bench_record.SCHEMA
    assert path.name == f"BENCH_{payload['bench']}.json"
    assert payload["metrics"], "metrics must not be empty"
    _assert_numeric_leaves(payload["metrics"], f"{path.name}:metrics")
    _assert_numeric_leaves(payload["context"], f"{path.name}:context")
    # Speedup metrics are ratios > 0 wherever they appear.
    stack = [payload["metrics"]]
    while stack:
        mapping = stack.pop()
        for key, value in mapping.items():
            if isinstance(value, dict):
                stack.append(value)
            elif key == "speedup":
                assert value > 0


class TestRecorder:
    def test_silent_without_destination(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_OUT", raising=False)
        monkeypatch.delenv("REPRO_REGEN_BENCH", raising=False)
        payload = _bench_record.record_bench("smoke", {"seconds": 1.5})
        assert payload["metrics"] == {"seconds": 1.5}
        assert not list(tmp_path.iterdir())

    def test_writes_artifact_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_OUT", str(tmp_path))
        monkeypatch.delenv("REPRO_REGEN_BENCH", raising=False)
        _bench_record.record_bench("smoke", {"seconds": 2.0}, context={"rows": 10})
        written = json.loads((tmp_path / "BENCH_smoke.json").read_text())
        assert written["bench"] == "smoke"
        assert written["metrics"] == {"seconds": 2.0}
        assert written["context"] == {"rows": 10}

    def test_merges_groups_across_records(self, tmp_path, monkeypatch):
        """Two benchmark tests can land in one trajectory file."""
        monkeypatch.setenv("REPRO_BENCH_OUT", str(tmp_path))
        _bench_record.record_bench("smoke", {"left": {"speedup": 3.0}})
        _bench_record.record_bench(
            "smoke", {"right": {"speedup": 5.0}}, context={"rows": 7}
        )
        written = json.loads((tmp_path / "BENCH_smoke.json").read_text())
        assert set(written["metrics"]) == {"left", "right"}
        assert written["context"] == {"rows": 7}

    def test_mismatched_schema_is_replaced_not_merged(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_OUT", str(tmp_path))
        target = tmp_path / "BENCH_smoke.json"
        target.write_text(json.dumps({"schema": 0, "bench": "smoke", "metrics": {"old": 1}}))
        _bench_record.record_bench("smoke", {"new": 2.0})
        written = json.loads(target.read_text())
        assert written["schema"] == _bench_record.SCHEMA
        assert written["metrics"] == {"new": 2.0}
