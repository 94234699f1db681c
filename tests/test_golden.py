"""Golden run records: the corpus of ``tests/golden/regenerate.py`` must give
the stored exit codes, record bytes and checkpoint bytes."""

import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).parent / "golden" / "regenerate.py"
_spec = importlib.util.spec_from_file_location("golden_regenerate", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_records_match_the_golden_corpus(tmp_path):
    stored = json.loads(golden.RECORDS.read_text())
    here = golden.environment()
    assert stored["environment"] == here, (
        f"the golden records come from {stored['environment']}, this run "
        f"has {here}; regenerate them with {_SCRIPT.name} in this "
        f"environment and compare the two files")
    got = golden.run_corpus(tmp_path)
    assert [e["argv"] for e in got] == \
        [e["argv"] for e in stored["records"]], \
        f"the corpus of {_SCRIPT.name} is not the one stored"
    moved = [f"{' '.join(want['argv'])}\n  stored: {want}\n  now:    {now}"
             for want, now in zip(stored["records"], got) if want != now]
    assert not moved, "records moved:\n" + "\n".join(moved)
