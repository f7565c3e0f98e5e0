"""Experiment drivers, one per paper table / evaluation claim.

Each module exposes ``run(spark, ...) -> pandas.DataFrame`` producing
the rows the paper's table reports, and ``main()``, which prints the
paper's numbers beside ours: ``python -m repro.experiments.<name>``.
"""
