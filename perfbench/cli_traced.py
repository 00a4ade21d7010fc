"""``python -m charseq.cli`` with every layer traced, for the traced cli run.

Usage: python3 perfbench/cli_traced.py <summary.json> <spans.json.gz> <cli args...>

Times the import of charseq.cli in this fresh interpreter, wraps the
layers and ``cli.main``, runs the call, then writes the trace summary
(with ``import_s``) and the spans.  Standard output and the exit code are
the CLI's own.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    summary_path, spans_path, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    import charseq.cli as cli

    import_s = time.perf_counter() - t0
    import charseq.constructions  # noqa: F401  (load every traced module)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install({"cli.main": cli.main})
    try:
        code = cli.main(args)
    except SystemExit as stop:  # argparse usage errors
        code = stop.code
    sys.stdout.flush()
    summary = tracer.summary()
    summary["import_s"] = import_s
    Path(summary_path).write_text(json.dumps(summary), encoding="utf-8")
    tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
