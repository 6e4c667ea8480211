"""Sequent calculi with subexponentials, proof search, and machine encodings.

The package has three layers:

* formulas, signatures and the unfocused calculus with its certificate
  checker and a small exhaustive proof search;
* the focused calculus: checker, defocusing translation, and a bounded
  deterministic prover;
* two-register machines and the encoding that turns halting into
  derivability, with certificate/trace translations in both directions.
"""

from .errors import (
    AtomClash,
    CheckError,
    MachineError,
    MalformedCertificate,
    ParseError,
    Reason,
    SignatureError,
    TraceMismatch,
    UnknownLabel,
)
from .formulas import (
    BOT,
    ONE,
    TOP,
    ZERO,
    Atom,
    Bang,
    Bot,
    Context,
    Formula,
    NegAtom,
    One,
    Par,
    Plus,
    Polarity,
    Qm,
    Sequent,
    Tensor,
    Top,
    With,
    Zero,
    dual,
    polarity,
)
from .signatures import Signature, close_signature, is_unbounded, leq
from .parsing import (
    parse_formula,
    parse_sequent,
    parse_signature,
    print_formula,
    print_sequent,
    print_signature,
)
from .records import rule_counts
from .unfocused import UProof, check_unfocused, search_unfocused
from .focusing import FProof, check_focused, defocus, is_neutral
from .prover import Exhausted, Proved, SearchStats, prove_focused
from .minsky import (
    Configuration,
    Entry,
    Halted,
    Machine,
    OutOfFuel,
    Stuck,
    load_machine,
    parse_machine,
    parse_trace,
    print_machine,
    print_trace,
    run,
    step,
    validate_machine,
)
from .reduction import (
    ReductionBundle,
    encode_config,
    encode_halting,
    encoding_signature,
    proof_from_trace,
    trace_from_proof,
)
from .certificates import (
    parse_focused_proof,
    parse_unfocused_proof,
    print_focused_proof,
    print_unfocused_proof,
)
from .corpus import corpus_names, load_corpus

__version__ = "0.1.0"
