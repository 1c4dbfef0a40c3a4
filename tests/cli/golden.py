#!/usr/bin/env python3
"""Golden-output test for the rqcheck and rqeval command-line tools.

A corpus file is a JSON list of cases. Each case names the tool's
arguments, the exit code it must return and the exact bytes it must
print on stdout. Stderr is not compared: it carries error wording and
observability output, which are not part of the contract.

    python3 tests/cli/golden.py <tool-binary> <corpus.json>
    python3 tests/cli/golden.py --update <tool-binary> <corpus.json>

Run it from the repository root: corpus arguments name files such as
data/team.graph relative to it. --update rewrites each case's expected
exit code and stdout from the tool's current output.
"""

import json
import subprocess
import sys

TIMEOUT_S = 60


def run(tool, args):
    proc = subprocess.run([tool] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    return proc.returncode, proc.stdout.decode("utf-8")


def main(argv):
    update = "--update" in argv
    positional = [a for a in argv if a != "--update"]
    if len(positional) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    tool, corpus_path = positional
    with open(corpus_path, encoding="utf-8") as f:
        cases = json.load(f)

    failures = 0
    for i, case in enumerate(cases):
        code, stdout = run(tool, case["args"])
        if update:
            case["exit"], case["stdout"] = code, stdout
            continue
        if code != case["exit"] or stdout != case["stdout"]:
            failures += 1
            print(f"case {i} {case['args']!r}:\n"
                  f"  expected exit {case['exit']}, stdout "
                  f"{case['stdout']!r}\n"
                  f"  got      exit {code}, stdout {stdout!r}")

    if update:
        with open(corpus_path, "w", encoding="utf-8") as f:
            json.dump(cases, f, indent=2, ensure_ascii=False)
            f.write("\n")
        print(f"updated {len(cases)} cases in {corpus_path}")
        return 0
    print(f"{len(cases) - failures}/{len(cases)} cases match")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
