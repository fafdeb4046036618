"""Entry point named by BENCHMARK.json: ``python3 benchmarks/ledger/run.py``.

Puts the checkout's ``src/`` and root on ``sys.path`` (no environment
variable, no install step) and hands over to :mod:`benchmarks.ledger.cli`.
Under the ``spawn`` start method the shard workers re-import this file as
``__mp_main__``, which is why everything else sits behind the main guard.
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
for _entry in (str(_ROOT), str(_ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

if __name__ == "__main__":
    from benchmarks.ledger.cli import main

    sys.exit(main())
