"""Print one workload's set-up time, measured in this fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload>

The figure is the process's CPU time when the first run is ready, so it
covers the interpreter's start, the import of mokka (including curve's
fixed-base table), parse_scenario, keygen for every node and
build_keyring. Like the runs, set-up is timed on the CPU clock: it reads
only files the operating system has cached, and the CPU clock leaves out
the time the processor spent on other processes.
"""

import sys
import time

import workloads

workloads.setup(workloads.WORKLOADS[sys.argv[1]])
print(repr(time.process_time()))
