"""Record the bytes of every `pencil verify` output the pencil workload can ask for.

    python3 perfbench/record_pencil.py

Writes golden_pencil.json: the SHA-256 of the JSON output for each k in the
workload's range and each seed of its pool.  The pencil oracle requires later
outputs to be byte-identical to these.  Re-record only at a commit whose
pencil output is trusted; a change that is meant to keep the output must pass
against the old file.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles  # noqa: E402
import workloads  # noqa: E402
from k3gonal.cli import main  # noqa: E402


def record() -> dict:
    digests = {}
    for k in workloads.PENCIL_KS:
        for seed in range(workloads.PENCIL_POOL):
            command = workloads.pencil_command(k, seed)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(list(command.argv))
            if code != 0:
                raise SystemExit(f"exit {code} for {' '.join(command.argv)}")
            key = oracles.pencil_key(k, workloads.PENCIL_SAMPLES, seed)
            digests[key] = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    return {"sha256": digests}


if __name__ == "__main__":
    oracles.GOLDEN_PENCIL.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
