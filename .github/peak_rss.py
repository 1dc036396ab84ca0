"""Run one command and gate its exit code and peak memory.

    python .github/peak_rss.py --limit MB [--rc 0,3] -- COMMAND [ARG ...]

Runs COMMAND with its stdout discarded, then reads the peak resident set
size of the finished child, `ru_maxrss` of RUSAGE_CHILDREN (KiB on
Linux).  Exits 0 when the child's exit code is one of `--rc` (default 0)
and its peak is at most `--limit` MB, else 1.
"""

import argparse
import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(usage="%(prog)s --limit MB [--rc 0,3] -- COMMAND [ARG ...]")
    parser.add_argument("--limit", type=float, required=True, help="peak RSS bound in MB")
    parser.add_argument("--rc", default="0", help="accepted exit codes, comma-separated")
    if "--" not in argv or argv.index("--") == len(argv) - 1:
        parser.error("give the command after --")
    sep = argv.index("--")
    args, command = parser.parse_args(argv[:sep]), argv[sep + 1:]
    accepted = {int(code) for code in args.rc.split(",")}
    rc = subprocess.run(command, stdout=subprocess.DEVNULL).returncode
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{' '.join(command)}: exit {rc}, peak RSS {peak:.1f} MB "
          f"(limit {args.limit:g} MB)")
    return 0 if rc in accepted and peak <= args.limit else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
