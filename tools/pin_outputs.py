"""Rewrite ``tests/outputs_pinned.json`` from the outputs of this checkout.

    PYTHONPATH=src python tools/pin_outputs.py

Run it only after a change that is meant to alter what users see, and
check the cases whose digests changed (``git diff``) against what the
change intends.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

TEST = Path(__file__).resolve().parents[1] / "tests" / "test_outputs_pinned.py"


def main() -> int:
    spec = importlib.util.spec_from_file_location("test_outputs_pinned", TEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    digests = module.digests()
    module.PINNED.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(digests)} cases pinned in {module.PINNED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
