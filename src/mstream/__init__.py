"""Exact synchronous stream processes over finite probability.

The package is layered:

- :mod:`mstream.kernel` — finite exact probability: bases, distributions
  held as integer weights over one denominator and read as `Fraction`
  masses, kernels and the Markov-category structure on them
  (copy/discard, conditionals, ranges).
- :mod:`mstream.stream_core` — the `Stream` of kernels: a short prefix of
  tick kernels, then one stationary kernel, threading memory from tick to
  tick.
  Composition, feedback, exact observation (`observe`, `obs_equal`,
  `first_difference`) and execution (`run_det`, `sample_trace`).
- :mod:`mstream.sfg_ir` — a typed term IR of delayed wirings (generators,
  copy/discard/sym, `fby`/`wait` boxes, feedback) with a type
  checker, a compiler to streams, printers/readers and a random term
  generator.
- :mod:`mstream.lang` — a small Lucid-like surface language (`fby`,
  `wait`, `unif`) with a parser, causality analysis and an elaborator
  down to IR terms.
- :mod:`mstream.cli` — the `mstream` command: run, sample, exact,
  check.
"""

from .errors import (
    BadIndex,
    CausalityError,
    ElaborationError,
    EmptySupport,
    MStreamError,
    NondeterministicStream,
    NotEnumerable,
    ParseError,
    ShapeMismatch,
    StateCapExceeded,
    TermTypeError,
)
from .kernel import (
    BOOL,
    INT,
    UNIT,
    Base,
    Dist,
    FinSet,
    IntRange,
    Kernel,
    conditional,
    copy,
    det_kernel,
    dirac,
    discard,
    kernel_compose,
    kernel_eq,
    kernel_tensor,
    marginalize,
    range_kernel,
    sample,
    swap,
    triangle,
    uniform,
)
from .lang import Program, check_causality, elaborate, parse, pretty_program
from .rng import SplitMix64, mix
from .sfg_ir import (
    Const,
    Copy,
    DelayTerm,
    Discard,
    Fbk,
    FbyBox,
    Gen,
    Id,
    Par,
    Seq,
    Signature,
    Sym,
    Term,
    Wait,
    WireType,
    default_signature,
    finite_signature,
    infer_type,
    is_stochastic,
    perm_term,
    pretty,
    random_term,
    read_term,
)
from .sfg_ir import compile as compile_term
from .sfg_ir import par as par_term
from .sfg_ir import seq as seq_term
from .stream_core import (
    NStageProcess,
    ShapeSeq,
    Stream,
    copy_stream,
    delay,
    discard_stream,
    fbk,
    fby_box,
    first_difference,
    identity,
    lift_const,
    lift_seq,
    obs_equal,
    observe,
    observe_marginals,
    par_comp,
    run_det,
    sample_trace,
    seq_comp,
    swap_stream,
    wait_stream,
)
from .values import Value, value_str, value_to_json

__version__ = "0.1.0"

__all__ = [
    "BadIndex", "CausalityError", "ElaborationError", "EmptySupport",
    "MStreamError", "NondeterministicStream", "NotEnumerable", "ParseError",
    "ShapeMismatch", "StateCapExceeded", "TermTypeError",
    "BOOL", "INT", "UNIT", "Base", "Dist", "FinSet", "IntRange", "Kernel",
    "conditional", "copy", "det_kernel", "dirac", "discard",
    "kernel_compose", "kernel_eq", "kernel_tensor", "marginalize",
    "range_kernel", "sample", "swap", "triangle", "uniform",
    "Program", "check_causality", "elaborate", "parse", "pretty_program",
    "SplitMix64", "mix",
    "Const", "Copy", "DelayTerm", "Discard", "Fbk", "FbyBox", "Gen", "Id", "Par",
    "Seq", "Signature", "Sym", "Term", "Wait", "WireType",
    "compile_term", "default_signature", "finite_signature", "infer_type",
    "is_stochastic", "par_term", "perm_term", "pretty", "random_term",
    "read_term", "seq_term",
    "NStageProcess", "ShapeSeq", "Stream", "copy_stream", "delay",
    "discard_stream", "fbk", "fby_box", "first_difference", "identity",
    "lift_const", "lift_seq", "obs_equal", "observe",
    "observe_marginals", "par_comp", "run_det", "sample_trace",
    "seq_comp", "swap_stream", "wait_stream",
    "Value", "value_str", "value_to_json",
    "__version__",
]
