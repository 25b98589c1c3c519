"""Record the sha256 of the registry run files into golden.json.

    python3 bench/record_golden.py

Run from the root of a source checkout. Only re-record when a change is
meant to alter the run-directory bytes, and say why in that change.
"""

import json
import sys
import tempfile
from pathlib import Path

from workloads import GOLDEN_PATH, digest_run_dir

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import hbvkit as hk

    golden = {}
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as work:
        for sid in hk.SCENARIOS:
            hk.run_scenario(sid, Path(work) / sid)
            golden[sid] = digest_run_dir(Path(work) / sid)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
