"""End-to-end benchmark of the repro-solar stack.

``python3 perfbench/run.py --workload <name>`` runs one of four
workloads through the library's public entry points, checks every
output against a reference, and prints the end-to-end metrics (or,
with ``--trace 1``, the per-layer metrics) as the last line of JSON.
``python3 perfbench/compare.py`` compares two sets of such results.
See ``perfbench/README.md`` for the workloads and the metric contract.
"""
