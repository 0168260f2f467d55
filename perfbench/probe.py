"""Set-up probe: import spikedrop and load a workload's inputs, then exit.

    python3 perfbench/probe.py SRC_DIR DATA_CSV [MODEL_JSON]

The parent times the whole process, interpreter start included.
"""

import sys

sys.path.insert(0, sys.argv[1])

import spikedrop  # noqa: E402
import spikedrop.cli  # noqa: E402,F401

spikedrop.load_csv(sys.argv[2], target_column="target")
if len(sys.argv) > 3:
    spikedrop.load_model(sys.argv[3])
