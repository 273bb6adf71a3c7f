"""Run the hklat CLI in a fresh interpreter with a speed sampler.

    PYTHONPATH=src python3 perfbench/clirun.py verify all --seed 42

Equivalent to ``python3 -m hklat.cli ...``, except that a `SpeedSampler`
(see speed.py) probes the host speed in this process while the command
runs, and its samples go to the last line of stderr after PROBE_TAG, so
that the caller can scale the subprocess's wall time by the speed of the
core it actually ran on.
"""

import json
import sys

from speed import SpeedSampler

PROBE_TAG = "perfbench-probes "


def main():
    sampler = SpeedSampler()
    sampler.start()
    try:
        from hklat import cli
        rc = cli.main(sys.argv[1:])
    finally:
        sampler.stop()
        sys.stdout.flush()
        sys.stderr.write("\n" + PROBE_TAG
                         + json.dumps([sampler.starts, sampler.times]) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
