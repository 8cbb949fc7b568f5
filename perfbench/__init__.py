"""The repository benchmark: serving workloads, host and simulated metrics.

``python3 perfbench/run.py --help`` runs it; ``perfbench/README.md`` says
what each workload and metric is for.
"""
