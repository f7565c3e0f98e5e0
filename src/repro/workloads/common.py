"""Shared workload machinery.

A :class:`Workload` bundles a relational catalog, a BaaV schema and a
set of query :class:`Template`\\ s with their intended scan-free /
bounded labels (the labels the paper's §9 query suites carry). Tests
assert the classifiers reproduce the labels; benches run the templates
through both the baseline SQL layer and Zidian.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pandas as pd

from ..core.query import Query
from ..core.schema import BaaVSchema, Catalog


@dataclass
class Template:
    """One parameterized query template (paper §9 'queries')."""

    name: str
    scan_free: bool  # intended label over the workload's BaaV schema
    bounded: bool  # intended label over the workload's store
    make: Callable[[object], Query]
    default_param: object
    param_choices: tuple = ()  # alternatives for random instantiation

    def instantiate(self, param: object | None = None) -> Query:
        return self.make(self.default_param if param is None else param)


@dataclass
class Workload:
    """A dataset + schema + query suite (TPC-H-lite / MOT-lite / AIRCA-lite)."""

    name: str
    catalog: Catalog
    baav: BaaVSchema
    templates: list[Template]
    pdfs: Callable[..., dict[str, pd.DataFrame]]

    def template(self, name: str) -> Template:
        for t in self.templates:
            if t.name == name:
                return t
        raise KeyError(name)
