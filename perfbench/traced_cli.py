"""Run the ``repro`` CLI with the span recorder on; write its spans as JSON.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced_cli.py SPANS.json run design-gain-grid ...

The benchmark's traced campaign legs start this in place of
``python3 -m repro.cli`` so the runner's parent process records spans.
Worker processes are not traced; per-job busy time comes from the journal.
"""

import json
import sys

import spans


def main() -> int:
    output, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.SpanRecorder()
    spans.instrument(recorder)
    recorder.phase = "round"
    recorder.enabled = True
    import repro.cli
    code = repro.cli.main(argv)
    recorder.enabled = False
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(recorder.to_dict(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
