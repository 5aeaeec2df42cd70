"""Send the deep-nesting requests through the subprocess oracle adapter.

Usage: python3 perfbench/deep.py OUT_JSON

Writes one entry per request: the reply tokens, or the adapter's error
tag. The requests come from ``checker.deep_requests`` and do not depend on
any seed.
"""

from __future__ import annotations

import json
import shlex
import sys

from checker import deep_requests


def oracle_command() -> str:
    return shlex.join([sys.executable, "-m", "pcfgset", "oracle"])


def send(adapter_cls, requests) -> list[dict]:
    """Ask one sequential worker for every request, as ``eval`` would."""
    with adapter_cls(oracle_command(), jobs=1) as adapter:
        predictions = adapter.predict_batch([src for src, _ in requests])
    return [
        {"reply": None if p.tokens is None else " ".join(p.tokens), "error": p.error}
        for p in predictions
    ]


def main(out_path: str) -> int:
    from pcfgset.harness import SubprocessAdapter

    replies = send(SubprocessAdapter, deep_requests())
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(replies, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
