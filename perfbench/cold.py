"""One cold start: a fresh interpreter imports pilme and runs one operation.

Reads {"src", "mode", "item"} as JSON on stdin.  Prints "done" the moment
the operation returns (the caller stops its clock there), then checks
the output and prints "ok" or the failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import ops


def main() -> int:
    request = json.load(sys.stdin)
    pilme = ops.import_pilme(Path(request["src"]))
    item = request["item"]
    if request["mode"] == "library":
        result = ops.run_sweep(pilme, item)
    else:
        rc, out, err = ops.run_cli(pilme.cli, ops.cli_argv(item))
    print("done", flush=True)

    import checks

    if request["mode"] == "library":
        status, reason = checks.check_sweep(item, result)
    else:
        from pilme import schemas

        status, reason = checks.CliChecker(schemas.SCHEMAS).check(0, item, rc, out, err)
    print(status if status == "ok" else f"{status}: {reason}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
