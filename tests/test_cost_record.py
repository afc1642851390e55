"""BENCH_costs.json is the committed output of scripts/cost_record.py: a
change that moves any cost it records must regenerate the file, so the
move shows in the diff."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_committed_cost_record_is_current(tmp_path):
    spec = importlib.util.spec_from_file_location("cost_record", ROOT / "scripts" / "cost_record.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "costs.json"
    assert script.main(["--out", str(out)]) == 0
    assert len(json.loads(out.read_text())) == 4 * 39 + 2  # four builders at m = 2..40, two at m = 163
    assert out.read_text() == (ROOT / "BENCH_costs.json").read_text(), (
        "costs moved: rerun PYTHONPATH=src python3 scripts/cost_record.py and commit BENCH_costs.json"
    )
