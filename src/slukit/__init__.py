"""Evaluation and cross-lingual transfer toolkit for intent and slot data.

Importing the package loads no submodule; import each one by name
(``from slukit import tagger``).
"""

__version__ = "0.1.0"
