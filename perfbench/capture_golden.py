"""Capture the golden CLI outputs that the cli-cold workload compares against.

    python3 perfbench/capture_golden.py

Runs every cli-cold input once at the current checkout and writes exit code
and stdout to perfbench/golden/cli.json.  Inputs whose expected behaviour
differs from what the code does today (a traceback where exit 1 without one
is documented) are recorded with the documented exit code and empty stdout,
and listed on stderr.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from clicold import GOLDEN_PATH, INPUTS, call  # noqa: E402


def main():
    root = os.path.dirname(HERE)
    golden = []
    for group, _, argv in INPUTS:
        p = call(root, argv)
        entry = {"argv": argv, "exit": p.returncode, "stdout": p.stdout}
        if "Traceback (most recent call last)" in p.stderr:
            print(f"traceback today: {' '.join(argv)}", file=sys.stderr)
            entry = {"argv": argv, "exit": 1, "stdout": ""}
        golden.append(entry)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
