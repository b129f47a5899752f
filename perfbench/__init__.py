"""The repository benchmark: three workloads driven through the public
surfaces of ``repro`` (threaded HTTP front end, cluster router over async
shards, in-process library), measured end to end and, in a separate
traced run, per layer.  Entry point: ``python3 perfbench/run.py``."""
