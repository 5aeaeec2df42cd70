"""Toolkit for studying compositional generalisation on string-edit sequences.

A probabilistic grammar samples prefix-notation function compositions over
letter strings, an iterative interpreter that handles any nesting depth
supplies ground-truth outputs, and the surrounding modules turn the sampled
corpora into five generalisation tests (systematicity, productivity,
substitutivity, localism and overgeneralisation) with an adapter-based
evaluation harness.
"""

__version__ = "0.1.0"
