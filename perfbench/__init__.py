"""Benchmark harness for farsilm: three closed-loop workloads (prep,
pretrain, finetune) timed from outside the package, with output checks,
computed counts and a traced run that splits each workload by layer.

Run one workload from the repository root::

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 20 --trace 0

See RATIONALE.md for why each workload exists and which end-to-end metric
each layer metric is predicted to move.
"""
