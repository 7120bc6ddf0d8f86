"""Set-up of one benchmark run: a sequence of ``segan`` commands.

Run as its own process, so that its wall time covers interpreter start,
imports, dataset generation and, for ``measure``, the set-up checkpoint:

    python3 perfbench/prepare.py '[["gen-data", "--out", "d", ...], ...]'

Exits with the first non-zero exit code of a command.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(commands: list[list[str]]) -> int:
    from segan import cli

    for argv in commands:
        code = cli.main(argv)
        if code != 0:
            print(f"set-up command failed with exit code {code}: segan {' '.join(argv)}",
                  file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
