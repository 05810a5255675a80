#!/usr/bin/env python3
"""Pin a CLI command set's output to its end-to-end reference digests.

Runs each command of the chosen set at --threads 1 and at --threads 8 and
compares the SHA-256 of each stdout with the entry of the same command in
e2ebench/references.json, which this script only reads. A change of the
printed bytes (a moved optimum, a reworded line, a thread-count dependence)
then fails tier-1 without running the end-to-end benchmark.

Command sets:
  cooptimize (default)  `cooptimize off-chip --alpha 0.3` and `cooptimize hmc
                        --alpha 0.1`, the two benchmarks of the end-to-end
                        cooptimize workload;
  simulate              `simulate <bench> --policy distr --limit 60` on the
                        four benchmarks, each at its baseline and at the two
                        other designs the cli-oneshot workload runs;
  lut, montecarlo       every `lut` or `montecarlo` command the references
                        hold (12 each);
  analyze               every `analyze` and `em-check` command the
                        references hold (72 + 36).

Usage: check_cooptimize_reference.py PDN3D_BINARY REFERENCES_JSON [SET]
Exit 0 when every digest matches, 1 otherwise.

Stdlib only, so the build can run it as a ctest without extra deps.
"""

import hashlib
import json
import os
import subprocess
import sys

SIMULATE_DESIGNS = ([], ["--m2", "15", "--m3", "30"], ["--m2", "8", "--m3", "25", "--tc", "64"])
COMMAND_SETS = {
    "cooptimize": (
        ["cooptimize", "off-chip", "--alpha", "0.3"],
        ["cooptimize", "hmc", "--alpha", "0.1"],
    ),
    "simulate": tuple(
        ["simulate", bench, "--policy", "distr", "--limit", "60", *design]
        for bench in ("off-chip", "on-chip", "wide-io", "hmc")
        for design in SIMULATE_DESIGNS
    ),
}
# Sets read from the references themselves: every recorded command whose
# first word is one of these.
RECORDED_SETS = {
    "lut": ("lut",),
    "montecarlo": ("montecarlo",),
    "analyze": ("analyze", "em-check"),
}
THREADS = ("1", "8")


def main(argv):
    sets = [*COMMAND_SETS, *RECORDED_SETS]
    if len(argv) not in (3, 4) or (len(argv) == 4 and argv[3] not in sets):
        print("usage: check_cooptimize_reference.py PDN3D_BINARY REFERENCES_JSON "
              f"[{' | '.join(sets)}]", file=sys.stderr)
        return 2
    binary, references = argv[1], argv[2]
    name = argv[3] if len(argv) == 4 else "cooptimize"
    with open(references, encoding="utf-8") as fh:
        recorded = json.load(fh)
    if name in RECORDED_SETS:
        commands = [key.split() for key in recorded if key.split()[0] in RECORDED_SETS[name]]
    else:
        commands = COMMAND_SETS[name]
    # The references were recorded without any PDN3D_* switch in effect.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PDN3D_")}
    failed = False
    for command in commands:
        expected = recorded[" ".join(command)]
        for threads in THREADS:
            proc = subprocess.run([binary, *command, "--threads", threads], env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False)
            digest = hashlib.sha256(proc.stdout).hexdigest()
            ok = proc.returncode == 0 and digest == expected
            failed |= not ok
            print(f"{'ok  ' if ok else 'FAIL'} {' '.join(command)} --threads {threads}: "
                  f"exit {proc.returncode}, sha256 {digest[:12]} (reference {expected[:12]})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
