"""Closed-loop end-to-end benchmark for the PSQL server and cluster.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload; see ``perfbench/README.md``.
"""
