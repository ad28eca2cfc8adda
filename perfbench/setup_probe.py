"""Set a workload up and exit: imports plus input generation, nothing else.

    python3 perfbench/setup_probe.py WORKLOAD SEED

``run.py`` times whole runs of this script in fresh interpreters to measure
``setup_s``.  The library must be importable (``PYTHONPATH=src``).
"""

import sys

import workloads

workloads.BUILDERS[sys.argv[1]](int(sys.argv[2]))
