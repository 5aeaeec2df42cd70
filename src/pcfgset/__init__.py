"""Toolkit for studying compositional generalisation on string-edit sequences.

A probabilistic grammar samples prefix-notation function compositions over
letter strings, an iterative interpreter that handles any nesting depth
supplies ground-truth outputs, and the surrounding modules turn the sampled
corpora into five generalisation tests (systematicity, productivity,
substitutivity, localism and overgeneralisation) with an adapter-based
evaluation harness.
"""

from .generation import (
    Alphabet,
    Corpus,
    GrammarParams,
    Sample,
    generate_corpus,
    split_corpus,
)
from .harness import (
    EvaluationReport,
    FaultyOracleAdapter,
    FileAdapter,
    ModelAdapter,
    OracleAdapter,
    SubprocessAdapter,
    build_adapter,
    run_accuracy,
    run_consistency,
    run_eos_analysis,
    run_length_generalisation,
    run_localism,
    run_overgeneralisation,
)
from .language import (
    DEFAULT_REGISTRY,
    FunctionRegistry,
    evaluate,
    evaluate_text,
    fold,
    parse,
    parse_text,
    render_text,
    stats,
    tokenize,
)
from .naturalise import (
    DistributionSpec,
    PartitionConfig,
    mle_estimate,
    naturalise_pipeline,
    naturalised_corpus,
)
from .seeding import DEFAULT_SEED, subseed, substream
from .suite import (
    DEFAULT_EXCEPTION_REMAP,
    DEFAULT_HELD_OUT_PAIRS,
    HeldOutPair,
    SynonymMap,
    build_unroll_plan,
    exceptions_apply,
    make_consistency_pairs,
    productivity_split,
    substitutivity_equal,
    substitutivity_primitive,
    systematicity_split,
)

__version__ = "0.1.0"
