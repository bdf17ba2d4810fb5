"""``get_spark`` under the name the benchmark runner (``pipebench/run.py``)
loads from this file; the factory itself is ``repro.session.get_spark``."""
from repro.session import get_spark

__all__ = ["get_spark"]
